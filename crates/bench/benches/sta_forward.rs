//! Lazy forward flushing on the burst-mutate workload: K gate resizes
//! per critical-delay read, K ∈ {1, 8, 64} — the sizing loop's
//! write-back pattern with the slack side factored out (no constraint
//! is ever set, so the measured difference is purely the *forward*
//! strategy).
//!
//! Both sides execute the identical mutation sequence:
//!
//! * `merged` — the lazy engine as-is: K resizes only mark the forward
//!   dirty set; the one delay read per round drains the merged cone
//!   (overlapping cones deduplicate in the rank bitset, and the
//!   budgeted cut-over caps a saturated flush at one full topo sweep).
//! * `per-mutation` — what the same round cost before PR 5: a delay
//!   read after *every* resize forces the flush each mutation, i.e. the
//!   old eager `resize → propagate` semantics expressed through the
//!   query API (identical arc evaluations, identical bits).
//!
//! Gate sizes toggle between their base value and 1.2× as the round
//! cursor cycles the gate list, keeping the state bounded without
//! probe/revert pairs. Per-round times are collected over enough rounds
//! to cycle every gate, alternating which side is timed first each
//! round (the first-timed side pays the round's cold caches — timing
//! one side first systematically biased K = 1 below 1.0×).
//! `speedup_median` is the median over *round pairs* of the paired
//! ratio `(e₀+e₁)/(m₀+m₁)`: each pair contains one merged-first and one
//! eager-first round, so order bias and load drift cancel inside the
//! pair. Per-side medians and means ride along, and the two sides are
//! cross-checked bit-for-bit every round. Results are recorded in
//! `BENCH_sta_forward.json` at the repository root; the acceptance bar
//! is a median speedup > 1.0 from K = 8 on every suite circuit (at
//! K = 1 the sides do identical work and the ratio sits at ~1.0, the
//! lazy bookkeeping being noise).

use std::time::Instant;

use pops_bench::microbench::format_ns;
use pops_bench::{mean, median, write_baseline};
use pops_delay::Library;
use pops_netlist::{suite, GateId};
use pops_sta::{Sizing, TimingGraph};

struct WorkloadBaseline {
    circuit: String,
    gates: usize,
    k: usize,
    rounds: usize,
    eager_median_ns: f64,
    eager_mean_ns: f64,
    merged_median_ns: f64,
    merged_mean_ns: f64,
    speedup_median: f64,
    speedup_mean: f64,
}
pops_bench::json_fields!(WorkloadBaseline {
    circuit,
    gates,
    k,
    rounds,
    eager_median_ns,
    eager_mean_ns,
    merged_median_ns,
    merged_mean_ns,
    speedup_median,
    speedup_mean
});

/// One timed round of one side. Both strategies run through this one
/// function so they execute the same machine code — separate loops per
/// side give the branch predictor and icache a systematic preference
/// for one of them, which is visible at K = 1 where the strategies
/// otherwise do identical work.
///
/// * `per_mutation = false` — merged: K resizes mark the dirty set,
///   the single delay read drains the merged cone.
/// * `per_mutation = true` — a delay read after every resize forces the
///   flush each mutation, the pre-lazy eager semantics.
///
/// Returns the final delay and the elapsed nanoseconds.
#[inline(never)]
fn run_side(graph: &mut TimingGraph, changes: &[(GateId, f64)], per_mutation: bool) -> (f64, f64) {
    let t0 = Instant::now();
    let mut d = 0.0;
    for &(g, cin) in changes {
        graph.resize_gate(g, cin);
        if per_mutation {
            d = std::hint::black_box(graph.critical_delay_ps());
        }
    }
    if !per_mutation {
        d = std::hint::black_box(graph.critical_delay_ps());
    }
    (d, t0.elapsed().as_nanos() as f64)
}

/// The K gates of one round: a non-wrapping chunk of the gate cycle,
/// without duplicates within one round. When fewer than K gates remain,
/// the round takes the *last* K (overlapping the previous chunk) so the
/// `len % K` tail gates are exercised too, then the cursor restarts.
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
    let mut baselines = Vec::new();

    for name in ["fpd", "c432", "c880", "c1908", "c6288", "c7552"] {
        let circuit = suite::circuit(name).expect("suite circuit");
        let sizing = Sizing::minimum(&circuit, &lib);
        let gates: Vec<GateId> = circuit.gate_ids().collect();

        let mut merged = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
        let mut eager = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");

        // Warm-up: touch every cone once on both graphs, flushing per
        // step so the measured rounds start from settled state.
        for &g in &gates {
            let orig = merged.sizing().cin_ff(g);
            for graph in [&mut merged, &mut eager] {
                graph.resize_gate(g, orig * 1.2);
                let _ = graph.critical_delay_ps();
                graph.resize_gate(g, orig);
                let _ = graph.critical_delay_ps();
            }
        }

        // Base sizes and per-gate toggle phase (shared by both sides so
        // their mutation sequences stay identical).
        let base: Vec<f64> = gates.iter().map(|&g| merged.sizing().cin_ff(g)).collect();

        for k in [1usize, 8, 64] {
            let k = k.min(gates.len());
            // Enough rounds to touch every gate at least once, with a
            // floor that scales the sample count up as K shrinks — the
            // K = 1 rounds are microsecond-sized and their median is
            // the acceptance-gated ~1.0× anchor, so it needs the most
            // samples to sit still on a noisy runner.
            let rounds = gates.len().div_ceil(k).max(1024 / k).max(32);
            let mut cursor = 0usize;
            let mut phase = vec![false; gates.len()];
            let mut merged_ns = Vec::with_capacity(rounds);
            let mut eager_ns = Vec::with_capacity(rounds);

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

                // Alternate which side is timed first each round: the
                // first-timed side pays the round's cold caches (the
                // cone's slabs were last touched a whole gate cycle
                // ago), which showed up as a systematic ~0.9× at K = 1
                // where the two sides otherwise do identical work.
                let mut d_merged = 0.0;
                let mut d_eager = 0.0;
                for side in 0..2 {
                    if (round + side) % 2 == 0 {
                        let (d, ns) = run_side(&mut merged, &changes, false);
                        d_merged = d;
                        merged_ns.push(ns);
                    } else {
                        let (d, ns) = run_side(&mut eager, &changes, true);
                        d_eager = d;
                        eager_ns.push(ns);
                    }
                }

                // The bench is only valid while both sides agree
                // bit-for-bit at every round boundary.
                assert_eq!(
                    d_merged.to_bits(),
                    d_eager.to_bits(),
                    "{name} K={k}: merged flush diverged from per-mutation propagation"
                );
            }

            // Restore the base sizing for the next K.
            for graph in [&mut merged, &mut eager] {
                graph.resize_gates(gates.iter().map(|&g| (g, base[g.index()])));
                let _ = graph.critical_delay_ps();
            }

            let (m_med, m_mean) = (median(merged_ns.clone()), mean(&merged_ns));
            let (e_med, e_mean) = (median(eager_ns.clone()), mean(&eager_ns));
            // Paired speedup estimator: consecutive rounds alternate
            // which side is timed first, so summing each pair puts one
            // cold-first round of *each* side in both numerator and
            // denominator — order bias and load drift cancel within the
            // pair, and the median over pairs is far tighter than the
            // ratio of grand medians on a noisy runner. At K = 1 the
            // sides do identical work and this sits at 1.0×.
            let pair_ratios: Vec<f64> = eager_ns
                .chunks_exact(2)
                .zip(merged_ns.chunks_exact(2))
                .map(|(e, m)| (e[0] + e[1]) / (m[0] + m[1]))
                .collect();
            baselines.push(WorkloadBaseline {
                circuit: name.to_string(),
                gates: circuit.gate_count(),
                k,
                rounds,
                eager_median_ns: e_med,
                eager_mean_ns: e_mean,
                merged_median_ns: m_med,
                merged_mean_ns: m_mean,
                speedup_median: median(pair_ratios),
                speedup_mean: e_mean / m_mean,
            });
        }
    }

    println!(
        "circuit      gates    K  rounds  per-mut median  merged median   speedup (median / mean)"
    );
    for b in &baselines {
        println!(
            "{:<10} {:>6} {:>4} {:>7}  {:>14}  {:>13}  {:>7.1}x / {:.1}x",
            b.circuit,
            b.gates,
            b.k,
            b.rounds,
            format_ns(b.eager_median_ns),
            format_ns(b.merged_median_ns),
            b.speedup_median,
            b.speedup_mean,
        );
    }

    write_baseline("sta_forward", &baselines);
}
