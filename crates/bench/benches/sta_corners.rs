//! Fused multi-corner throughput: K gate resizes (K ∈ {1, 8, 64})
//! followed by one design-worst-slack read, timed on one fused
//! slow/typical/fast graph against the same mutations replayed on
//! three independent single-corner graphs.
//!
//! Both sides execute identical mutation sequences and are
//! cross-checked bit-for-bit every round (each fused corner view
//! against its single-corner twin, and the fused worst-over-corners
//! against the twins' folded worst — the `corner_equivalence` suite's
//! invariant, enforced here while timing). Each read pays the forward
//! dirty cone of the resizes, then one full backward sweep and one
//! slack fold over the slabs. The fused side evaluates each gate
//! **once covering all three corners** through the stride-3 slabs; the
//! per-corner side pays the cone, the sweep and the fold — arc
//! hoisting, dirty bookkeeping, loop and slab traversal — once per
//! corner. The speedup is that amortization; the acceptance bar is a
//! median above 1.0 at every K.
//!
//! Results are recorded in `BENCH_sta_corners.json` at the repository
//! root. All rows are `optional`: like the scaling bench's larger
//! classes, they gate only when the CI run regenerates them.

use std::time::Instant;

use pops_bench::microbench::format_ns;
use pops_bench::{mean, median, write_baseline};
use pops_delay::{CornerSet, Library, Process};
use pops_netlist::{suite, GateId};
use pops_sta::analysis::AnalyzeOptions;
use pops_sta::{Sizing, TimingGraph};

struct CornerRow {
    kind: &'static str,
    circuit: String,
    gates: usize,
    corners: usize,
    k: usize,
    rounds: usize,
    per_corner_median_ns: f64,
    per_corner_mean_ns: f64,
    fused_median_ns: f64,
    fused_mean_ns: f64,
    speedup_median: f64,
    speedup_mean: f64,
    optional: bool,
}
pops_bench::json_fields!(CornerRow {
    kind,
    circuit,
    gates,
    corners,
    k,
    rounds,
    per_corner_median_ns,
    per_corner_mean_ns,
    fused_median_ns,
    fused_mean_ns,
    speedup_median,
    speedup_mean,
    optional
});

/// One timed round of the fused side: K resizes, one worst-slack read.
#[inline(never)]
fn run_fused(graph: &mut TimingGraph, changes: &[(GateId, f64)]) -> (Option<f64>, f64) {
    let t0 = Instant::now();
    graph.resize_gates(changes.iter().copied());
    let w = std::hint::black_box(graph.worst_slack_overall_ps());
    (w, t0.elapsed().as_nanos() as f64)
}

/// One timed round of the per-corner side: the same K resizes and a
/// worst-slack read on *every* single-corner twin, plus the fold over
/// corners that the fused read does in the same pass.
#[inline(never)]
fn run_per_corner(twins: &mut [TimingGraph], changes: &[(GateId, f64)]) -> (Option<f64>, f64) {
    let t0 = Instant::now();
    let mut worst = f64::INFINITY;
    for g in twins.iter_mut() {
        g.resize_gates(changes.iter().copied());
        if let Some(w) = std::hint::black_box(g.worst_slack_overall_ps()) {
            worst = worst.min(w);
        }
    }
    let w = (worst != f64::INFINITY).then_some(worst);
    (w, t0.elapsed().as_nanos() as f64)
}

/// The K gates of one round: a non-wrapping chunk of the gate cycle
/// (same scheme as `sta_forward`).
fn round_gates(gates: &[GateId], cursor: &mut usize, k: usize) -> Vec<GateId> {
    if *cursor + k > gates.len() {
        *cursor = 0;
        return gates[gates.len() - k..].to_vec();
    }
    let chunk = gates[*cursor..*cursor + k].to_vec();
    *cursor += k;
    chunk
}

fn main() {
    let lib = Library::cmos025();
    let set = CornerSet::slow_typical_fast(Process::cmos025());
    let corner_libs: Vec<Library> = set.iter().map(|p| Library::new(p.clone())).collect();
    let options = AnalyzeOptions::default();
    let mut rows = Vec::new();

    for name in ["fpd", "c432", "c880", "c1908", "c6288", "c7552"] {
        let circuit = suite::circuit(name).expect("suite circuit");
        let sizing = Sizing::minimum(&circuit, &lib);
        let gates: Vec<GateId> = circuit.gate_ids().collect();

        let mut fused =
            TimingGraph::with_corners(&circuit, &lib, &sizing, &options, &set).expect("acyclic");
        let mut twins: Vec<TimingGraph> = corner_libs
            .iter()
            .map(|l| TimingGraph::with_options(&circuit, l, &sizing, &options).expect("acyclic"))
            .collect();
        let tc = 0.95 * fused.critical_delay_ps();
        fused.set_constraint(tc);
        for g in &mut twins {
            g.set_constraint(tc);
        }

        // Warm-up: one full flush on every graph from a whole-design
        // resize, so the measured rounds start from settled state.
        let warm: Vec<(GateId, f64)> = gates.iter().map(|&g| (g, sizing.cin_ff(g) * 1.1)).collect();
        let _ = run_fused(&mut fused, &warm);
        let _ = run_per_corner(&mut twins, &warm);

        let base: Vec<f64> = gates.iter().map(|&g| fused.sizing().cin_ff(g)).collect();

        for k in [1usize, 8, 64] {
            let k = k.min(gates.len());
            let rounds = gates.len().div_ceil(k).max(512 / k).max(16);
            let mut cursor = 0usize;
            let mut phase = vec![false; gates.len()];
            let mut fused_ns = Vec::with_capacity(rounds);
            let mut split_ns = Vec::with_capacity(rounds);

            for round in 0..rounds {
                let chunk = round_gates(&gates, &mut cursor, k);
                let changes: Vec<(GateId, f64)> = chunk
                    .iter()
                    .map(|&g| {
                        let i = g.index();
                        phase[i] = !phase[i];
                        (g, base[i] * if phase[i] { 1.2 } else { 1.0 })
                    })
                    .collect();

                // Alternate which side is timed first each round so the
                // cold-cache penalty cancels within round pairs.
                let (w_fused, w_split);
                if round % 2 == 0 {
                    let (w, ns) = run_fused(&mut fused, &changes);
                    w_fused = w;
                    fused_ns.push(ns);
                    let (w, ns) = run_per_corner(&mut twins, &changes);
                    w_split = w;
                    split_ns.push(ns);
                } else {
                    let (w, ns) = run_per_corner(&mut twins, &changes);
                    w_split = w;
                    split_ns.push(ns);
                    let (w, ns) = run_fused(&mut fused, &changes);
                    w_fused = w;
                    fused_ns.push(ns);
                }

                // The bench is only valid while the fused fold and the
                // independent corners agree bit-for-bit.
                assert_eq!(
                    w_fused.map(f64::to_bits),
                    w_split.map(f64::to_bits),
                    "{name} K={k}: fused worst-over-corners diverged"
                );
                for (c, twin) in twins.iter().enumerate() {
                    assert_eq!(
                        fused.worst_slack_overall_ps_corner(c).map(f64::to_bits),
                        twin.worst_slack_overall_ps().map(f64::to_bits),
                        "{name} K={k}: corner {c} diverged"
                    );
                }
            }

            // Restore the base sizing for the next K.
            let restore: Vec<(GateId, f64)> = gates.iter().map(|&g| (g, base[g.index()])).collect();
            let _ = run_fused(&mut fused, &restore);
            let _ = run_per_corner(&mut twins, &restore);

            let pair_ratios: Vec<f64> = split_ns
                .chunks_exact(2)
                .zip(fused_ns.chunks_exact(2))
                .map(|(s, f)| (s[0] + s[1]) / (f[0] + f[1]))
                .collect();
            rows.push(CornerRow {
                kind: "corners",
                circuit: name.to_string(),
                gates: circuit.gate_count(),
                corners: set.len(),
                k,
                rounds,
                per_corner_median_ns: median(split_ns.clone()),
                per_corner_mean_ns: mean(&split_ns),
                fused_median_ns: median(fused_ns.clone()),
                fused_mean_ns: mean(&fused_ns),
                speedup_median: median(pair_ratios),
                speedup_mean: mean(&split_ns) / mean(&fused_ns),
                optional: true,
            });
        }
    }

    println!(
        "circuit      gates  corners    K  rounds  per-corner median  fused median   speedup (median / mean)"
    );
    for r in &rows {
        println!(
            "{:<10} {:>6} {:>8} {:>4} {:>7}  {:>17}  {:>12}  {:>7.2}x / {:.2}x",
            r.circuit,
            r.gates,
            r.corners,
            r.k,
            r.rounds,
            format_ns(r.per_corner_median_ns),
            format_ns(r.fused_median_ns),
            r.speedup_median,
            r.speedup_mean,
        );
    }

    write_baseline("sta_corners", &rows);
}
