//! Randomized backward equivalence: the backward state of a
//! [`TimingGraph`] — per-net required times, slacks and the design-worst
//! slack — must match a from-scratch backward pass (`required_times`
//! over a fresh `analyze_with` report) after **every** step of a random
//! resize sequence, and the k-paths completion bounds derived over the
//! graph must match `completion_bounds` over the same fresh report. The
//! mirror of `tests/incremental_equivalence.rs` for the reverse
//! direction, plus the cost contract: one full sweep per stale read.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, AnalyzeOptions, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

fn assert_backward_equivalent(graph: &TimingGraph, circuit: &Circuit, lib: &Library, step: usize) {
    let tc = graph.constraint_ps().expect("constraint set");
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options())
        .expect("suite circuits are valid");
    let slacks =
        required_times(circuit, lib, graph.sizing(), &fresh, tc).expect("suite circuits are valid");
    let name = circuit.name();
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.required_ps(net, dir).to_bits(),
                slacks.required_ps(net, dir).to_bits(),
                "{name} step {step}: required of {net} {dir:?}: {} vs {}",
                graph.required_ps(net, dir),
                slacks.required_ps(net, dir)
            );
            assert_eq!(
                graph.slack_ps(net, dir).to_bits(),
                slacks.slack_ps(net, dir).to_bits(),
                "{name} step {step}: slack of {net} {dir:?}"
            );
        }
        assert_eq!(
            graph.worst_slack_ps(net).to_bits(),
            slacks.worst_slack_ps(net).to_bits(),
            "{name} step {step}: worst slack of {net}"
        );
    }
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "{name} step {step}: design-worst slack diverged"
    );
    // The k-paths bounds derived over the graph's worst gate delays.
    let bounds = completion_bounds(circuit, &fresh);
    let via_graph = completion_bounds(circuit, graph);
    for g in circuit.gate_ids() {
        assert_eq!(
            via_graph[g.index()].to_bits(),
            bounds[g.index()].to_bits(),
            "{name} step {step}: completion bound of {g}"
        );
    }
}

fn random_resize_sequence(name: &str, seed: u64, steps: usize) {
    let lib = Library::cmos025();
    let circuit = suite::circuit(name).expect("suite circuit exists");
    let mut rng = SplitMix64::new(seed);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib))
        .expect("suite circuits are acyclic");
    // A tight-but-feasible constraint so slacks straddle zero.
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();

    for step in 0..steps {
        // Mix single resizes with occasional small batches (the flow's
        // write-back pattern) and occasional shrink-back-to-minimum —
        // the same move distribution as the forward equivalence suite.
        match rng.below(4) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(6))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 30.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref);
            }
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 30.0 * rng.next_f64()));
            }
        }
        assert_backward_equivalent(&graph, &circuit, &lib, step);
    }

    // After the whole sequence the K-paths ranking through the cached
    // completion bounds agrees with the one through a fresh report.
    let fresh = analyze_with(&circuit, &lib, graph.sizing(), graph.options()).unwrap();
    let via_graph = k_most_critical_paths(&circuit, &graph, 8);
    let via_fresh = k_most_critical_paths(&circuit, &fresh, 8);
    assert_eq!(via_graph.len(), via_fresh.len());
    for (a, b) in via_graph.iter().zip(&via_fresh) {
        assert_eq!(a.gates, b.gates, "{name}: k-paths diverged");
    }
}

#[test]
fn fpd_random_resizes_match_full_backward_pass() {
    random_resize_sequence("fpd", 0xBAC0_F00D, 50);
}

#[test]
fn c432_random_resizes_match_full_backward_pass() {
    random_resize_sequence("c432", 0xBAC0_0432, 50);
}

#[test]
fn c880_random_resizes_match_full_backward_pass() {
    random_resize_sequence("c880", 0xBAC0_0880, 50);
}

#[test]
fn c1908_random_resizes_match_full_backward_pass() {
    random_resize_sequence("c1908", 0xBAC0_1908, 50);
}

#[test]
fn c6288_random_resizes_match_full_backward_pass() {
    // The multiplier is the heavyweight: fewer steps keep the fresh
    // reference passes (one per step) affordable in debug builds.
    random_resize_sequence("c6288", 0xBAC0_6288, 20);
}

#[test]
fn c7552_random_resizes_match_full_backward_pass() {
    random_resize_sequence("c7552", 0xBAC0_7552, 20);
}

#[test]
fn option_and_constraint_changes_interleaved_with_resizes_match() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("fpd").unwrap();
    let mut rng = SplitMix64::new(0x0B97_1CAF);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(t0);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();
    for step in 0..24 {
        match step % 6 {
            4 => {
                // Options are fixed per graph: an option change is a
                // rebuild on the current sizing under the same
                // constraint, and the resizes continue on it.
                let options = AnalyzeOptions {
                    po_load_ff: 5.0 + 40.0 * rng.next_f64(),
                    input_transition_ps: 20.0 + 100.0 * rng.next_f64(),
                };
                let tc = graph.constraint_ps().expect("constraint set");
                let sizing = graph.sizing().clone();
                graph = TimingGraph::with_options(&circuit, &lib, &sizing, &options).unwrap();
                graph.set_constraint(tc);
            }
            5 => {
                // Constraint moves force a full backward refresh too
                // (required times are subtract-chains from tc).
                graph.set_constraint(t0 * (0.7 + 0.6 * rng.next_f64()));
            }
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 20.0 * rng.next_f64()));
            }
        }
        assert_backward_equivalent(&graph, &circuit, &lib, step);
    }
}

#[test]
fn each_stale_backward_read_costs_one_full_sweep() {
    // The backward state is whole or stale: the first backward read
    // after a mutation is one backward flush of exactly one required
    // evaluation per net (the full sweep), a repeat read at the same
    // generation costs nothing, and a forward read never flushes
    // backward.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut rng = SplitMix64::new(0x57A7_BACC);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();
    for step in 0..50 {
        let before = graph.stats();
        let _ = graph.worst_slack_overall_ps();
        let stale = graph.stats();
        assert_eq!(
            (
                stale.backward_flushes - before.backward_flushes,
                stale.required_reevaluated - before.required_reevaluated
            ),
            (1, circuit.net_count()),
            "step {step}: a stale read sweeps once"
        );
        let net = *rng.pick(&circuit.net_ids().collect::<Vec<_>>());
        let _ = graph.slack_ps(net, EdgeDir::Rising);
        let _ = graph.worst_slack_overall_ps();
        assert_eq!(graph.stats(), stale, "step {step}: a repeat read is free");

        let g = *rng.pick(&gates);
        graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
        let _ = graph.critical_delay_ps();
        assert_eq!(
            graph.stats().backward_flushes,
            stale.backward_flushes,
            "step {step}: a forward read never flushes backward"
        );
    }
}
