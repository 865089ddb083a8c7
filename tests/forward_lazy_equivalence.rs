//! Forward-lazy ≡ eager: with PR 5 the *forward* timing state of a
//! [`TimingGraph`] is query-driven too — mutations only mark dirty
//! sets, and the first timing query runs one merged
//! forward(-then-backward) flush. This suite proves the whole queryable
//! surface — arrivals, slopes, loads, worst gate delays, the critical
//! path, required times, slacks, completion bounds, k-paths — stays
//! **bit-identical** to a from-scratch eager pass no matter how many
//! mutations (resizes, batched write-backs, structural edits and
//! constraint changes) pile up *between* queries.
//!
//! The mirror of `tests/lazy_equivalence.rs` (which covers the backward
//! state) for the forward direction, plus the stats-proven lazy
//! contract: mutations alone never flush *either* direction, a forward
//! query never pays for backward state, and the merged forward flush
//! does strictly less arc work than per-mutation propagation.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

/// Bit-exact comparison of every *forward* observable against a fresh
/// eager pass over the graph's (possibly edited) circuit.
fn assert_forward_equals_eager(graph: &TimingGraph, lib: &Library, step: usize) {
    let circuit = graph.circuit();
    let name = circuit.name();
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).expect("acyclic");
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        fresh.critical_delay_ps().to_bits(),
        "{name} step {step}: critical delay diverged"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.arrival_ps(net, dir).to_bits(),
                fresh.arrival_ps(net, dir).to_bits(),
                "{name} step {step}: arrival of {net} {dir:?}"
            );
            assert_eq!(
                graph.slope_ps(net, dir).to_bits(),
                fresh.slope_ps(net, dir).to_bits(),
                "{name} step {step}: slope of {net} {dir:?}"
            );
        }
        assert_eq!(
            graph.net_load_ff(net).to_bits(),
            fresh.net_load_ff(net).to_bits(),
            "{name} step {step}: load of {net}"
        );
    }
    for g in circuit.gate_ids() {
        assert_eq!(
            graph.gate_delay_worst_ps(g).to_bits(),
            fresh.gate_delay_worst_ps(g).to_bits(),
            "{name} step {step}: worst delay of {g}"
        );
    }
    assert_eq!(
        graph.critical_path().gates,
        fresh.critical_path().gates,
        "{name} step {step}: critical path diverged"
    );
}

/// The backward observables, when a constraint is set (the two-phase
/// flush must leave them eager-identical too).
fn assert_backward_equals_eager(graph: &TimingGraph, lib: &Library, step: usize) {
    let circuit = graph.circuit();
    let name = circuit.name();
    let tc = graph.constraint_ps().expect("constraint set");
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).expect("acyclic");
    let slacks = required_times(circuit, lib, graph.sizing(), &fresh, tc).expect("acyclic");
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "{name} step {step}: design-worst slack diverged"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.slack_ps(net, dir).to_bits(),
                slacks.slack_ps(net, dir).to_bits(),
                "{name} step {step}: slack of {net} {dir:?}"
            );
        }
    }
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

/// A buffer-insertion plan on a random fanout-heavy driven net of the
/// graph's current circuit, or `None` when the circuit has none.
fn random_buffer_plan(
    graph: &TimingGraph,
    lib: &Library,
    rng: &mut SplitMix64,
) -> Option<EditPlan> {
    let circuit = graph.circuit();
    let candidates: Vec<_> = circuit
        .net_ids()
        .filter(|&n| circuit.driver_gate(n).is_some() && circuit.net(n).fanout() >= 2)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let net = *rng.pick(&candidates);
    let loads = circuit.net(net).loads()[1..].to_vec();
    if loads.is_empty() {
        return None;
    }
    Some(
        vec![EditOp::InsertBuffer {
            net,
            loads,
            stage_cin_ff: [
                lib.min_drive_ff() * (1.0 + rng.next_f64()),
                lib.min_drive_ff() * (2.0 + 4.0 * rng.next_f64()),
            ],
        }]
        .into(),
    )
}

/// Random mutation bursts with queries (and the full differential
/// check) only every few steps — mutations in between stay unflushed in
/// *both* directions.
fn random_forward_lazy_sequence(name: &str, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let circuit = suite::circuit(name).expect("suite circuit");
    let mut rng = SplitMix64::new(seed);
    let mut graph =
        TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    let cref = lib.min_drive_ff();

    for step in 0..steps {
        // Gate ids against the *current* circuit: surgery appends gates.
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        match rng.below(8) {
            0 => {
                // Batched write-back, the flow's per-path pattern.
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                // Structural edit with both directions' seeds pending.
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            3 => {
                // Constraint move: fresh backward state, no forward work.
                graph.set_constraint(t0 * (0.7 + 0.6 * rng.next_f64()));
            }
            4 => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref);
            }
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
            }
        }
        if step % check_every == check_every - 1 {
            // Alternate which direction's query fires first, so both
            // the forward-query-first and the two-phase
            // backward-query-first flush orders are exercised.
            if (step / check_every).is_multiple_of(2) {
                assert_forward_equals_eager(&graph, &lib, step);
                assert_backward_equals_eager(&graph, &lib, step);
            } else {
                assert_backward_equals_eager(&graph, &lib, step);
                assert_forward_equals_eager(&graph, &lib, step);
            }
        }
    }
    // Whatever the tail of the sequence left pending, the final state
    // answers eagerly-correct.
    assert_forward_equals_eager(&graph, &lib, steps);
    assert_backward_equals_eager(&graph, &lib, steps);
}

#[test]
fn fpd_forward_lazy_matches_eager() {
    random_forward_lazy_sequence("fpd", 0x05F0_F00D, 48, 5);
}

#[test]
fn c432_forward_lazy_matches_eager() {
    random_forward_lazy_sequence("c432", 0x05F0_0432, 48, 5);
}

#[test]
fn c880_forward_lazy_matches_eager() {
    random_forward_lazy_sequence("c880", 0x05F0_0880, 40, 5);
}

#[test]
fn c1908_forward_lazy_matches_eager() {
    random_forward_lazy_sequence("c1908", 0x05F0_1908, 32, 4);
}

#[test]
fn c6288_forward_lazy_matches_eager() {
    // The multiplier is the heavyweight: fewer steps keep the fresh
    // reference passes affordable in debug builds.
    random_forward_lazy_sequence("c6288", 0x05F0_6288, 12, 3);
}

#[test]
fn c7552_forward_lazy_matches_eager() {
    random_forward_lazy_sequence("c7552", 0x05F0_7552, 12, 3);
}

#[test]
fn mutations_alone_never_flush_either_direction() {
    // The two-direction lazy contract as a stats-proven property: no
    // sequence of mutations — plain resizes, batches, surgery — does
    // *any* timing work, forward or backward; only queries do, exactly
    // once per (generation, direction), and a forward query never pays
    // for backward state.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut rng = SplitMix64::new(0x05F0_CAFE);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let cref = lib.min_drive_ff();
    let settled = graph.stats();

    for step in 0..60 {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        if step % 20 == 19 {
            if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                graph.apply_edits(&plan).unwrap();
            }
        } else if step % 7 == 3 {
            let batch: Vec<(GateId, f64)> = (0..4)
                .map(|_| {
                    let g = *rng.pick(&gates);
                    (g, cref * (1.0 + 10.0 * rng.next_f64()))
                })
                .collect();
            graph.resize_gates(batch);
        } else {
            let g = *rng.pick(&gates);
            graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
        }
        let s = graph.stats();
        assert_eq!(
            s.forward_flushes, settled.forward_flushes,
            "step {step}: mutation flushed forward"
        );
        assert_eq!(
            s.gates_reevaluated, settled.gates_reevaluated,
            "step {step}: mutation did forward arc work"
        );
        assert_eq!(
            s.backward_flushes, settled.backward_flushes,
            "step {step}: mutation flushed backward"
        );
        assert_eq!(
            s.required_reevaluated, settled.required_reevaluated,
            "step {step}: mutation did backward arc work"
        );
    }

    // One forward query: exactly one forward flush, no backward work.
    let _ = graph.critical_delay_ps();
    let after_fwd = graph.stats();
    assert_eq!(after_fwd.forward_flushes, settled.forward_flushes + 1);
    assert!(after_fwd.gates_reevaluated > settled.gates_reevaluated);
    assert_eq!(
        after_fwd.backward_flushes, settled.backward_flushes,
        "a forward query must not pay for backward state"
    );

    // A slack query joins the flushed forward generation (no second
    // forward flush) and sweeps the backward side once.
    let _ = graph.worst_slack_overall_ps();
    let after_bwd = graph.stats();
    assert_eq!(after_bwd.forward_flushes, after_fwd.forward_flushes);
    assert_eq!(after_bwd.gates_reevaluated, after_fwd.gates_reevaluated);
    assert_eq!(after_bwd.backward_flushes, settled.backward_flushes + 1);

    // Repeat queries on a clean generation are free in both directions.
    let _ = graph.critical_delay_ps();
    let _ = graph.worst_slack_overall_ps();
    assert_eq!(graph.stats(), after_bwd);

    // And the state all of this lands on is the eager one.
    assert_forward_equals_eager(&graph, &lib, usize::MAX);
    assert_backward_equals_eager(&graph, &lib, usize::MAX);
}

#[test]
fn backward_query_runs_the_two_phase_flush() {
    // A slack read on a graph with pending mutations must settle the
    // forward state first (one forward flush inside the same query) —
    // required times derive from final slopes and loads.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c432").unwrap();
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let g = circuit.gate_ids().nth(circuit.gate_count() / 2).unwrap();
    graph.resize_gate(g, 4.0 * lib.min_drive_ff());
    let before = graph.stats();
    let _ = graph.worst_slack_overall_ps();
    let after = graph.stats();
    assert_eq!(after.forward_flushes, before.forward_flushes + 1);
    assert_eq!(after.backward_flushes, before.backward_flushes + 1);
    assert!(after.gates_reevaluated > before.gates_reevaluated);
    assert_backward_equals_eager(&graph, &lib, 0);
}

#[test]
fn constraint_change_alone_never_flushes_forward() {
    // set_constraint bumps the mutation generation but deposits no
    // forward seeds: the next forward query settles the generation
    // without counting (or paying for) a flush.
    let lib = Library::cmos025();
    let circuit = suite::circuit("fpd").unwrap();
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    let t0 = graph.critical_delay_ps();
    let settled = graph.stats();
    graph.set_constraint(0.9 * t0);
    let _ = graph.critical_delay_ps();
    graph.set_constraint(0.8 * t0);
    let _ = graph.critical_delay_ps();
    let after = graph.stats();
    assert_eq!(after.forward_flushes, settled.forward_flushes);
    assert_eq!(after.gates_reevaluated, settled.gates_reevaluated);
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        t0.to_bits(),
        "constraint moves must not disturb arrivals"
    );
}

#[test]
fn merged_forward_flush_beats_per_mutation_propagation() {
    // N resizes + one query must re-evaluate (far) fewer gates than N
    // eager per-resize propagations: the merged cones deduplicate in
    // the rank bitset, and the saturation cut-over caps the flush at
    // roughly one full pass.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c1908").unwrap();
    let mut rng = SplitMix64::new(0x05F0_BEEF);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();

    let run = |query_per_resize: bool, rng: &mut SplitMix64| -> usize {
        let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
        let before = graph.stats().gates_reevaluated;
        for _ in 0..32 {
            let g = *rng.pick(&gates);
            graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
            if query_per_resize {
                let _ = graph.critical_delay_ps();
            }
        }
        let _ = graph.critical_delay_ps();
        graph.stats().gates_reevaluated - before
    };

    let mut rng_eager = SplitMix64::new(rng.next_u64());
    let eager = run(true, &mut rng_eager);
    let mut rng_lazy = SplitMix64::new(rng_eager.next_u64());
    // Different gates, same distribution — compare magnitudes, not bits.
    let lazy = run(false, &mut rng_lazy);
    assert!(
        lazy * 2 < eager,
        "merged forward flush ({lazy}) should be well under per-resize propagation ({eager})"
    );
}

#[test]
fn surgery_between_pending_resizes_matches_an_eager_pass() {
    // The lazy/surgery seam: resizes whose forward marks are still
    // pending, with the backward state stale, when a structural edit
    // re-ranks the netlist and resets the timing state — and then
    // resizes of the freshly created gates on top — must leave nothing
    // stale behind, and the sizing must extend exactly by the planned
    // (clamped) sizes at the new dense ids. The first query after the
    // pile-up answers bit-identically to a from-scratch eager pass.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c432").unwrap();
    let mut rng = SplitMix64::new(0x05F0_5EA1);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.85 * graph.critical_delay_ps());
    // Settle once so the pile-up below is what the next flush covers.
    let _ = graph.worst_slack_overall_ps();
    let cref = lib.min_drive_ff();

    for round in 0..6 {
        // 1. Resize burst: forward marks go pending, backward goes stale.
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        for _ in 0..5 {
            let g = *rng.pick(&gates);
            graph.resize_gate(g, cref * (1.0 + 20.0 * rng.next_f64()));
        }
        // 2. Surgery while those marks are un-flushed: ids re-rank, the
        //    sizing extends and the timing state resets.
        let before_gates = graph.circuit().gate_count();
        let plan = random_buffer_plan(&graph, &lib, &mut rng).expect("fanout-heavy nets exist");
        let applied = graph.apply_edits(&plan).expect("valid edit");
        let created: Vec<GateId> = applied.iter().flat_map(|a| a.new_gates.clone()).collect();
        assert_eq!(graph.circuit().gate_count(), before_gates + created.len());
        assert_eq!(graph.sizing().len(), graph.circuit().gate_count());
        for a in &applied {
            for (&g, &cin) in a.new_gates.iter().zip(&a.new_gate_cin_ff) {
                assert_eq!(
                    graph.sizing().cin_ff(g).to_bits(),
                    cin.max(lib.min_drive_ff()).to_bits(),
                    "round {round}: created gate {g} mis-sized"
                );
            }
        }
        // 3. More mutations on top, including the created gates — their
        //    ids key into the extended sizing.
        for &g in &created {
            graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
        }
        // 4. First query since the pile-up: one merged two-phase flush.
        assert_backward_equals_eager(&graph, &lib, round);
        assert_forward_equals_eager(&graph, &lib, round);
    }
}
