//! Deterministic ISCAS'85-like benchmark suite.
//!
//! The paper evaluates POPS on the longest path of each ISCAS'85 circuit
//! (plus a 16-bit adder and a small `fpd` block). Its Table 1 reports the
//! number of gates on each optimized path. Since the original 0.25 µm
//! technology-mapped netlists are not available, this module synthesizes,
//! from a fixed seed, a layered DAG per circuit whose
//!
//! * **critical-path length equals the paper's published path gate count**
//!   (the generator embeds a "spine" of exactly that many levels and caps
//!   the layer count at the same value, so the longest path is exact),
//! * total gate count and I/O counts match the real circuit's published
//!   statistics,
//! * cell mix reflects the real circuit's character (XOR-rich c499,
//!   NOR+INV c6288 multiplier, NAND-mapped c1355, …),
//! * spine nets carry realistic off-path fan-out (side loads are biased to
//!   tap spine nets), which is what makes sizing-vs-buffering interesting.
//!
//! Generation is pure (SplitMix64, no external RNG), so every experiment
//! in the repository is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use pops_netlist::suite;
//!
//! let c432 = suite::circuit("c432").expect("known benchmark");
//! assert_eq!(c432.depth().unwrap(), 29); // Table 1: 29 gates on the path
//! ```

use crate::cell::CellKind;
use crate::circuit::{Circuit, NetDriver, NetId};
use crate::rng::SplitMix64;

/// Generation profile for one benchmark circuit.
#[derive(Debug, Clone)]
pub struct CircuitProfile {
    /// Benchmark name (`"c432"`, `"adder16"`, …).
    pub name: &'static str,
    /// Gates on the critical path — the paper's Table 1 "Gate nb" column.
    pub path_gates: usize,
    /// Total gate count (published size of the real circuit).
    pub total_gates: usize,
    /// Primary input count.
    pub n_inputs: usize,
    /// Primary output count of the real circuit (generation hint; actual
    /// outputs are all sink nets).
    pub n_outputs: usize,
    /// Weighted cell mix.
    pub gate_mix: &'static [(CellKind, u32)],
    /// Seed for the deterministic generator.
    pub seed: u64,
}

use CellKind::*;

/// The eleven circuits evaluated in the paper (Tables 1/3, Figs. 2/4/8).
pub const PROFILES: &[CircuitProfile] = &[
    CircuitProfile {
        name: "adder16",
        path_gates: 99,
        total_gates: 320,
        n_inputs: 33,
        n_outputs: 17,
        gate_mix: &[(Nand2, 60), (Inv, 20), (Nor2, 12), (And2, 8)],
        seed: 0xADD3_1600,
    },
    CircuitProfile {
        name: "fpd",
        path_gates: 14,
        total_gates: 120,
        n_inputs: 16,
        n_outputs: 8,
        gate_mix: &[(Nand2, 40), (Nor2, 30), (Inv, 30)],
        seed: 0xF9D0_0001,
    },
    CircuitProfile {
        name: "c432",
        path_gates: 29,
        total_gates: 160,
        n_inputs: 36,
        n_outputs: 7,
        gate_mix: &[
            (Nor2, 30),
            (Nor3, 12),
            (Inv, 18),
            (Nand2, 20),
            (And2, 10),
            (Xor2, 10),
        ],
        seed: 0xC432,
    },
    CircuitProfile {
        name: "c499",
        path_gates: 29,
        total_gates: 202,
        n_inputs: 41,
        n_outputs: 32,
        gate_mix: &[(Xor2, 40), (Nand2, 20), (Inv, 20), (Nor2, 10), (And2, 10)],
        seed: 0xC499,
    },
    CircuitProfile {
        name: "c880",
        path_gates: 28,
        total_gates: 383,
        n_inputs: 60,
        n_outputs: 26,
        gate_mix: &[
            (Nand2, 30),
            (Nor2, 15),
            (And2, 15),
            (Inv, 20),
            (Nand3, 10),
            (Or2, 10),
        ],
        seed: 0xC880,
    },
    CircuitProfile {
        name: "c1355",
        path_gates: 30,
        total_gates: 546,
        n_inputs: 41,
        n_outputs: 32,
        gate_mix: &[(Nand2, 55), (Inv, 25), (Nor2, 15), (And2, 5)],
        seed: 0xC1355,
    },
    CircuitProfile {
        name: "c1908",
        path_gates: 44,
        total_gates: 880,
        n_inputs: 33,
        n_outputs: 25,
        gate_mix: &[(Nand2, 45), (Inv, 25), (Nor2, 15), (Nand3, 10), (Buf, 5)],
        seed: 0xC1908,
    },
    CircuitProfile {
        name: "c3540",
        path_gates: 58,
        total_gates: 1669,
        n_inputs: 50,
        n_outputs: 22,
        gate_mix: &[
            (Nand2, 28),
            (Nor2, 17),
            (And3, 8),
            (Inv, 22),
            (Or2, 10),
            (Nand3, 10),
            (Xor2, 5),
        ],
        seed: 0xC3540,
    },
    CircuitProfile {
        name: "c5315",
        path_gates: 60,
        total_gates: 2307,
        n_inputs: 178,
        n_outputs: 123,
        gate_mix: &[
            (Nand2, 32),
            (Nor2, 18),
            (Inv, 22),
            (And2, 10),
            (Or2, 10),
            (Nand3, 5),
            (Nor3, 3),
        ],
        seed: 0xC5315,
    },
    CircuitProfile {
        name: "c6288",
        path_gates: 116,
        total_gates: 2416,
        n_inputs: 32,
        n_outputs: 32,
        gate_mix: &[(Nor2, 55), (Inv, 25), (And2, 20)],
        seed: 0xC6288,
    },
    CircuitProfile {
        name: "c7552",
        path_gates: 47,
        total_gates: 3512,
        n_inputs: 207,
        n_outputs: 108,
        gate_mix: &[
            (Nand2, 38),
            (Inv, 25),
            (Nor2, 15),
            (And2, 10),
            (Xor2, 7),
            (Buf, 5),
        ],
        seed: 0xC7552,
    },
];

/// The benchmark suite: profile lookup and construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BenchmarkSuite;

impl BenchmarkSuite {
    /// Create a suite handle.
    pub fn new() -> Self {
        BenchmarkSuite
    }

    /// All profiles, in the paper's presentation order.
    pub fn profiles(&self) -> &'static [CircuitProfile] {
        PROFILES
    }

    /// Look up a profile by name.
    pub fn profile(&self, name: &str) -> Option<&'static CircuitProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// Build a circuit by benchmark name.
    pub fn circuit(&self, name: &str) -> Option<Circuit> {
        self.profile(name).map(build)
    }
}

/// Build a circuit by benchmark name (free-function convenience).
pub fn circuit(name: &str) -> Option<Circuit> {
    BenchmarkSuite::new().circuit(name)
}

/// Names of all benchmarks in presentation order.
pub fn names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

/// A production-scale synthetic size class (built by
/// [`crate::builders::synthetic_fabric`]): an array multiplier plus a
/// carry-select adder plus a random-logic cloud composing to exactly
/// `target_gates` gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingClass {
    /// Class name (`"synth10k"`, …).
    pub name: &'static str,
    /// Exact gate count of the generated fabric.
    pub target_gates: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

/// Scaling size classes used by the `sta_scaling` bench and the
/// flush-schedule tests. Unlike [`PROFILES`], these model no published
/// benchmark — they exist to exercise the engine at 10k–1M gates.
pub const SCALING_CLASSES: &[ScalingClass] = &[
    ScalingClass {
        name: "synth10k",
        target_gates: 10_000,
        seed: 0x5CA1_E010,
    },
    ScalingClass {
        name: "synth100k",
        target_gates: 100_000,
        seed: 0x5CA1_E100,
    },
    ScalingClass {
        name: "synth1m",
        target_gates: 1_000_000,
        seed: 0x5CA1_E1F0,
    },
];

/// Look up a scaling class by name.
pub fn scaling_class(name: &str) -> Option<&'static ScalingClass> {
    SCALING_CLASSES.iter().find(|c| c.name == name)
}

/// Build a scaling fabric by class name (`"synth10k"`, `"synth100k"`,
/// `"synth1m"`).
pub fn scaling_circuit(name: &str) -> Option<Circuit> {
    scaling_class(name).map(|c| crate::builders::synthetic_fabric(c.name, c.target_gates, c.seed))
}

fn pick_kind(rng: &mut SplitMix64, mix: &[(CellKind, u32)]) -> CellKind {
    let weights: Vec<u32> = mix.iter().map(|&(_, w)| w).collect();
    mix[rng.weighted(&weights)].0
}

/// Sample an input net strictly below `layer`.
///
/// `pool[l]` holds the nets created at layer `l` (`pool[0]` = primary
/// inputs). With probability 0.2 a *spine* net is chosen, giving the
/// critical path realistic off-path fan-out.
fn sample_below(rng: &mut SplitMix64, pool: &[Vec<NetId>], spine: &[NetId], layer: usize) -> NetId {
    debug_assert!(layer >= 1);
    if layer >= 2 && !spine.is_empty() && rng.chance(0.2) {
        // Spine nets for layers 1..layer are spine[0..layer-1].
        let hi = (layer - 1).min(spine.len());
        return spine[rng.below(hi)];
    }
    // Recency bias: 60% previous layer, else uniform lower layer.
    let l = if rng.chance(0.6) {
        layer - 1
    } else {
        rng.below(layer)
    };
    let bucket = &pool[l];
    if bucket.is_empty() {
        // Only possible if a layer produced no nets, which the spine
        // prevents; fall back to primary inputs.
        return pool[0][rng.below(pool[0].len())];
    }
    bucket[rng.below(bucket.len())]
}

fn sample_distinct(
    rng: &mut SplitMix64,
    pool: &[Vec<NetId>],
    spine: &[NetId],
    layer: usize,
    taken: &[NetId],
) -> NetId {
    for _ in 0..8 {
        let candidate = sample_below(rng, pool, spine, layer);
        if !taken.contains(&candidate) {
            return candidate;
        }
    }
    sample_below(rng, pool, spine, layer)
}

/// Deterministically build the circuit described by `profile`.
///
/// Postconditions (checked by the module tests):
/// * `circuit.depth() == profile.path_gates`,
/// * `circuit.gate_count() == max(profile.total_gates, profile.path_gates)`,
/// * the net `spine{path_gates}` is on a longest path ending at an output.
pub fn build(profile: &CircuitProfile) -> Circuit {
    let mut rng = SplitMix64::new(profile.seed);
    let mut c = Circuit::new(profile.name);
    let pis: Vec<NetId> = (0..profile.n_inputs)
        .map(|i| c.add_input(format!("pi{i}")))
        .collect();

    let levels = profile.path_gates;
    let fillers_total = profile.total_gates.saturating_sub(levels);
    let mut fillers_at = vec![fillers_total / levels; levels];
    for slot in fillers_at.iter_mut().take(fillers_total % levels) {
        *slot += 1;
    }

    let mut pool: Vec<Vec<NetId>> = Vec::with_capacity(levels + 1);
    pool.push(pis.clone());
    let mut spine: Vec<NetId> = Vec::with_capacity(levels);

    for layer in 1..=levels {
        let mut created = Vec::new();

        // The spine gate: guarantees a path of exactly `levels` gates.
        let kind = pick_kind(&mut rng, profile.gate_mix);
        let mut inputs = Vec::with_capacity(kind.num_inputs());
        let main_in = if layer == 1 {
            pis[rng.below(pis.len())]
        } else {
            spine[layer - 2]
        };
        inputs.push(main_in);
        while inputs.len() < kind.num_inputs() {
            inputs.push(sample_distinct(&mut rng, &pool, &spine, layer, &inputs));
        }
        let out = c
            .add_gate(kind, &inputs, format!("spine{layer}"))
            .expect("generator produces valid arities");
        spine.push(out);
        created.push(out);

        // Filler gates at this layer.
        for f in 0..fillers_at[layer - 1] {
            let kind = pick_kind(&mut rng, profile.gate_mix);
            let mut inputs: Vec<NetId> = Vec::with_capacity(kind.num_inputs());
            while inputs.len() < kind.num_inputs() {
                inputs.push(sample_distinct(&mut rng, &pool, &spine, layer, &inputs));
            }
            let out = c
                .add_gate(kind, &inputs, format!("f{layer}_{f}"))
                .expect("generator produces valid arities");
            created.push(out);
        }
        pool.push(created);
    }

    // Every sink net becomes a primary output (the real benchmarks have no
    // dangling internal nets). This always includes the spine end.
    let sinks: Vec<NetId> = c
        .net_ids()
        .filter(|&n| {
            c.net(n).loads().is_empty() && matches!(c.net(n).driver(), Some(NetDriver::Gate(_)))
        })
        .collect();
    for n in sinks {
        c.mark_output(n);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_build_and_validate() {
        for p in PROFILES {
            let c = build(p);
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn depth_matches_paper_path_gate_counts() {
        for p in PROFILES {
            let c = build(p);
            assert_eq!(
                c.depth().unwrap(),
                p.path_gates,
                "{} should have a {}-gate critical path",
                p.name,
                p.path_gates
            );
        }
    }

    #[test]
    fn gate_counts_match_profiles() {
        for p in PROFILES {
            let c = build(p);
            assert_eq!(
                c.gate_count(),
                p.total_gates.max(p.path_gates),
                "{}",
                p.name
            );
            assert_eq!(c.primary_inputs().len(), p.n_inputs, "{}", p.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = circuit("c880").unwrap();
        let b = circuit("c880").unwrap();
        assert_eq!(a.gate_count(), b.gate_count());
        for (ga, gb) in a.gate_ids().zip(b.gate_ids()) {
            assert_eq!(a.gate(ga).kind(), b.gate(gb).kind());
            assert_eq!(a.gate(ga).inputs(), b.gate(gb).inputs());
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(circuit("c6288").is_some());
        assert!(circuit("c9999").is_none());
        assert_eq!(names().len(), PROFILES.len());
        let suite = BenchmarkSuite::new();
        assert_eq!(suite.profile("fpd").unwrap().path_gates, 14);
    }

    #[test]
    fn spine_end_is_an_output() {
        for p in PROFILES {
            let c = build(p);
            let spine_end = c
                .net_by_name(&format!("spine{}", p.path_gates))
                .expect("spine end net exists");
            assert!(c.net(spine_end).is_output(), "{}", p.name);
        }
    }

    #[test]
    fn spine_nets_carry_off_path_fanout() {
        // The generator biases side sampling toward spine nets; on a large
        // circuit some spine net must have fanout > 1.
        let c = circuit("c7552").unwrap();
        let multi = (1..=47)
            .filter_map(|l| c.net_by_name(&format!("spine{l}")))
            .filter(|&n| c.net(n).fanout() > 1)
            .count();
        assert!(
            multi > 5,
            "expected off-path loading on the spine, got {multi}"
        );
    }

    #[test]
    fn cell_mix_respects_profile_support() {
        for p in PROFILES {
            let c = build(p);
            let allowed: Vec<CellKind> = p.gate_mix.iter().map(|&(k, _)| k).collect();
            for (kind, _) in c.cell_histogram() {
                assert!(allowed.contains(&kind), "{}: unexpected {kind}", p.name);
            }
        }
    }

    #[test]
    fn c6288_is_nor_dominated() {
        // The multiplier profile is NOR-rich (like the real c6288); the
        // ECAT-style c1355 is not.
        let nor_share = |name: &str| {
            let c = circuit(name).unwrap();
            let nors: usize = c
                .cell_histogram()
                .into_iter()
                .filter(|(k, _)| matches!(k, CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4))
                .map(|(_, n)| n)
                .sum();
            nors as f64 / c.gate_count() as f64
        };
        let f = nor_share("c6288");
        assert!(f > 0.4, "c6288 NOR fraction {f}");
        let f = nor_share("c1355");
        assert!(f < 0.3, "c1355 NOR fraction {f}");
    }

    #[test]
    fn scaling_classes_build_exactly_and_validate() {
        let c = scaling_circuit("synth10k").unwrap();
        assert_eq!(c.gate_count(), 10_000);
        c.validate().unwrap();
        assert!(scaling_circuit("synth2g").is_none());
        assert_eq!(scaling_class("synth1m").unwrap().target_gates, 1_000_000);
    }

    #[test]
    fn evaluation_runs_on_generated_circuits() {
        let c = circuit("fpd").unwrap();
        let values: std::collections::HashMap<&str, bool> = c
            .primary_inputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| (c.net(n).name(), i % 2 == 0))
            .collect();
        let out = c.evaluate(&values).unwrap();
        assert!(!out.is_empty());
    }
}
