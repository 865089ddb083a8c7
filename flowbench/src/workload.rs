//! The benchmark's workloads and the seeded generation of their netlists.

use std::time::Instant;

use pops::delay::power::leakage_nw;
use pops::flow::FlowOptions;
use pops::netlist::rng::SplitMix64;
use pops::netlist::{builders, suite, Circuit, VtClass};
use pops::prelude::{analyze, Library, Sizing};

/// Variants per circuit whose flows are timed: the first ones. A suite
/// circuit's flow time moves with its wiring (c7552 took 139 to 516 ms
/// over ten seeds, c6288 2.0 to 2.9 s), so one timed netlist per circuit
/// would let the seed, not the code, move `flow_s`.
pub const TIMED_VARIANTS: usize = 3;

/// The six suite circuits both suite workloads run, smallest first, each
/// with its number of netlist variants. Every variant's result feeds the
/// quality ratios; the first [`TIMED_VARIANTS`] are also timed. After a
/// tight flow, fpd's and c432's area depends so much on the wiring (0.12
/// log-variance over 300 generator seeds each) that few netlists would
/// let the seed, not the code, move the area metric; c880 follows at
/// 0.02, the others stay below 0.0002. Beyond the timed ones, the counts
/// split a few seconds of untimed flows per run in proportion to the
/// square root of each circuit's variance over its flow time.
const SUITE: &[(&str, usize)] = &[
    ("fpd", 32),
    ("c432", 20),
    ("c880", 8),
    ("c1908", TIMED_VARIANTS),
    ("c6288", TIMED_VARIANTS),
    ("c7552", TIMED_VARIANTS),
];

/// One named workload: which circuits, at which constraint, with which
/// flow options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Suite profile or scaling-class names, each with its variant count.
    pub circuits: &'static [(&'static str, usize)],
    /// The constraint as a multiple of each circuit's minimum-size
    /// critical delay T0.
    pub tc_factor: f64,
    /// Run the flow's leakage-driven HVT pass.
    pub vt_assignment: bool,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: &[Workload] = &[
    // Hard-domain sizing: Tmin solves, bisection and structural edits.
    Workload {
        name: "suite_tight",
        circuits: SUITE,
        tc_factor: 0.6,
        vt_assignment: false,
    },
    // Minimum size already meets tc: only the HVT probe loop runs, on
    // graphs below the parallel-flush threshold.
    Workload {
        name: "suite_vt",
        circuits: SUITE,
        tc_factor: 1.4,
        vt_assignment: true,
    },
    // Both timing graphs (primary, and 3-corner for the Vt pass) sit at
    // the parallel-flush threshold, so every full pass runs on the pool.
    // Just above T0 the typical corner meets tc, so no sizing round runs,
    // and the slow corner has no headroom, so the pass probes nothing:
    // the 10,000 pooled probes at 1.4·T0 spread 29 % between runs (ten
    // seeds, shared 2-vCPU machine), past any bound a regression gate
    // can use.
    Workload {
        name: "fabric_vt",
        circuits: &[("synth10k", 1)],
        tc_factor: 1.05,
        vt_assignment: true,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The flow options this workload runs `optimize_circuit` with.
    pub fn flow_options(&self) -> FlowOptions {
        FlowOptions {
            vt_assignment: self.vt_assignment,
            ..FlowOptions::default()
        }
    }

    /// Every (circuit name, variant) pair, in the round-robin order runs
    /// use.
    pub fn netlists(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.circuits
            .iter()
            .flat_map(|&(name, variants)| (0..variants).map(move |v| (name, v)))
    }
}

/// One generated netlist with the minimum-size reference figures every
/// quality ratio divides by.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Suite profile or scaling-class name.
    pub profile: &'static str,
    /// Variant index; variants below [`TIMED_VARIANTS`] are timed.
    pub variant: usize,
    /// Row label: the name, plus `/v` for variant `v > 0`.
    pub label: String,
    /// The netlist handed to the flow.
    pub circuit: Circuit,
    /// The constraint: `tc_factor` times the minimum-size critical delay.
    pub tc_ps: f64,
    /// ΣC_IN with every gate at minimum drive (fF).
    pub min_cin_ff: f64,
    /// All-SVT leakage at minimum size (nW).
    pub min_leakage_nw: f64,
}

impl Prepared {
    /// Whether this netlist's flows are timed.
    pub fn timed(&self) -> bool {
        self.variant < TIMED_VARIANTS
    }
}

/// Derive a generator seed from a circuit's canonical seed, the benchmark
/// seed and the variant. Seed 0, variant 0 keeps the canonical seed, so
/// seed 0 runs the repository's own netlists.
fn derive_seed(canonical: u64, seed: u64, variant: usize) -> u64 {
    if seed == 0 && variant == 0 {
        return canonical;
    }
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (variant as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(canonical ^ mix).next_u64()
}

/// Build one netlist by suite or scaling-class name through the public
/// generators. Gate counts do not depend on `seed` or `variant`, nor do
/// suite circuits' critical-path lengths; the wiring and cell choice do,
/// and a fabric's depth moves by a few levels.
///
/// # Panics
///
/// Panics on a name that is neither a suite profile nor a scaling class;
/// the workload table above only names known circuits.
pub fn generate(name: &str, seed: u64, variant: usize) -> Circuit {
    if let Some(p) = suite::BenchmarkSuite::new().profile(name) {
        let profile = suite::CircuitProfile {
            seed: derive_seed(p.seed, seed, variant),
            ..p.clone()
        };
        return suite::build(&profile);
    }
    let class = suite::scaling_class(name).expect("workload names a known circuit");
    let seed = derive_seed(class.seed, seed, variant);
    builders::synthetic_fabric(class.name, class.target_gates, seed)
}

/// Minimum-size reference figures of `circuit` under `tc_factor`.
///
/// # Errors
///
/// A netlist the timing analysis rejects.
fn analyze_min(
    profile: &'static str,
    variant: usize,
    label: String,
    circuit: Circuit,
    tc_factor: f64,
    lib: &Library,
) -> Result<Prepared, String> {
    let min = Sizing::minimum(&circuit, lib);
    let t0_ps = analyze(&circuit, lib, &min)
        .map_err(|e| format!("{label}: {e}"))?
        .critical_delay_ps();
    let min_leakage_nw = circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), VtClass::Svt, min.cin_ff(g)))
        .sum();
    Ok(Prepared {
        profile,
        variant,
        label,
        tc_ps: tc_factor * t0_ps,
        min_cin_ff: min.total_cin_ff(),
        min_leakage_nw,
        circuit,
    })
}

/// One set-up of a workload: its netlists, the wall time the whole
/// set-up took and the part of it spent generating netlists (s).
#[derive(Debug, Clone)]
pub struct Setup {
    /// Every netlist, in round-robin order.
    pub prepared: Vec<Prepared>,
    /// Generation plus minimum-size analysis (s).
    pub total_s: f64,
    /// Generation alone (s).
    pub generate_s: f64,
}

/// Generate and analyze every netlist of `workload` once.
///
/// # Errors
///
/// A netlist the timing analysis rejects.
pub fn set_up(workload: &Workload, seed: u64, lib: &Library) -> Result<Setup, String> {
    let start = Instant::now();
    let mut generate_s = 0.0;
    let mut prepared = Vec::new();
    for (name, variant) in workload.netlists() {
        let t = Instant::now();
        let circuit = generate(name, seed, variant);
        generate_s += t.elapsed().as_secs_f64();
        let label = if variant == 0 {
            name.to_string()
        } else {
            format!("{name}/{variant}")
        };
        prepared.push(analyze_min(
            name,
            variant,
            label,
            circuit,
            workload.tc_factor,
            lib,
        )?);
    }
    Ok(Setup {
        prepared,
        total_s: start.elapsed().as_secs_f64(),
        generate_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_netlist(a: &Circuit, b: &Circuit) -> bool {
        a.gate_count() == b.gate_count()
            && a.gate_ids().zip(b.gate_ids()).all(|(x, y)| {
                a.gate(x).kind() == b.gate(y).kind() && a.gate(x).inputs() == b.gate(y).inputs()
            })
    }

    #[test]
    fn seed_zero_variant_zero_is_the_canonical_netlist() {
        assert!(same_netlist(
            &generate("c432", 0, 0),
            &suite::circuit("c432").unwrap()
        ));
        assert!(same_netlist(
            &generate("synth10k", 0, 0),
            &suite::scaling_circuit("synth10k").unwrap()
        ));
    }

    #[test]
    fn other_seeds_and_variants_keep_size_and_depth_but_rewire() {
        let canonical = suite::circuit("c880").unwrap();
        for (seed, variant) in [(7, 0), (0, 1), (7, 1)] {
            let other = generate("c880", seed, variant);
            assert_eq!(other.gate_count(), canonical.gate_count());
            assert_eq!(other.depth().unwrap(), canonical.depth().unwrap());
            assert!(!same_netlist(&other, &canonical), "{seed}/{variant}");
            assert!(same_netlist(&other, &generate("c880", seed, variant)));
        }
        assert!(!same_netlist(
            &generate("c880", 7, 0),
            &generate("c880", 0, 7)
        ));
    }

    #[test]
    fn fabric_seeds_keep_the_gate_count_and_nearly_the_depth() {
        // The multiplier and adder are fixed; only the random cloud on
        // top of them is reseeded, which moves the depth by a few levels.
        let canonical = suite::scaling_circuit("synth10k").unwrap();
        let c = generate("synth10k", 3, 0);
        assert_eq!(c.gate_count(), 10_000);
        let depth = c.depth().unwrap() as f64 / canonical.depth().unwrap() as f64;
        assert!((depth - 1.0).abs() < 0.05, "depth ratio {depth}");
        c.validate().unwrap();
    }

    #[test]
    fn every_workload_names_known_circuits() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
            for (name, _) in w.netlists() {
                let known = suite::BenchmarkSuite::new().profile(name).is_some()
                    || suite::scaling_class(name).is_some();
                assert!(known, "{}: unknown circuit {name}", w.name);
            }
        }
        assert_eq!(
            Workload::by_name("suite_tight").unwrap().netlists().count(),
            69
        );
    }
}
