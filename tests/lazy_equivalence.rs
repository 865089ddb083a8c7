//! Lazy ≡ eager: the query-driven backward state of a [`TimingGraph`]
//! must be observationally identical to the eager PR-2/PR-3 semantics —
//! i.e. to a from-scratch forward + backward pass — no matter how many
//! mutations (resizes, batched write-backs, structural edits and
//! constraint changes) pile up *between* queries, and no matter
//! which query kind (slack, required time, design-worst slack, k-paths)
//! triggers the flush.
//!
//! The mirror of `tests/backward_equivalence.rs` for the lazy engine:
//! that suite queries after every step (so each flush covers one
//! mutation); this one lets whole mutation bursts accumulate unqueried,
//! exercising the merged forward flush, the sweep cut-over and the
//! reset a structural edit makes under pending marks.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

/// Bit-exact comparison of every backward observable against fresh
/// eager passes over the graph's (possibly edited) circuit.
fn assert_lazy_equals_eager(graph: &TimingGraph, lib: &Library, step: usize) {
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
                graph.required_ps(net, dir).to_bits(),
                slacks.required_ps(net, dir).to_bits(),
                "{name} step {step}: required of {net} {dir:?}"
            );
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
    let via_graph = k_most_critical_paths(circuit, graph, 6);
    let via_fresh = k_most_critical_paths(circuit, &fresh, 6);
    assert_eq!(via_graph.len(), via_fresh.len(), "{name} step {step}");
    for (a, b) in via_graph.iter().zip(&via_fresh) {
        assert_eq!(a.gates, b.gates, "{name} step {step}: k-paths diverged");
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

/// Random mutation bursts with a query (and full differential check)
/// only every few steps — mutations in between stay unflushed.
fn random_lazy_sequence(name: &str, seed: u64, steps: usize, check_every: usize) {
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
                // Structural edit with the backward seeds left pending.
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            3 => {
                // Constraint move: fresh backward state, still lazy.
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
            assert_lazy_equals_eager(&graph, &lib, step);
        }
    }
    // Whatever the tail of the sequence left pending, the final state
    // answers eagerly-correct.
    assert_lazy_equals_eager(&graph, &lib, steps);
}

/// `meets_constraint` on the single-corner sizing graph: after random
/// resize bursts, at the latest output arrival, one ulp either side of
/// it and random constraints — kept across bursts a third of the time,
/// so the backward state stays stale across bursts — the answer equals
/// the sign of the exact design-worst slack (read on a copy), and only
/// the rounding band flushes backward.
#[test]
fn meets_constraint_matches_the_worst_slack_sign_under_random_resizes() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").expect("suite circuit");
    let mut rng = SplitMix64::new(0x3EE7_0880);
    let mut graph =
        TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(t0);
    let cref = lib.min_drive_ff();
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    // Answers seen: failed fast, met fast, decided inside the band.
    let (mut failed, mut met, mut band) = (0usize, 0usize, 0usize);
    for step in 0..60 {
        let batch: Vec<(GateId, f64)> = (0..1 + rng.below(6))
            .map(|_| (*rng.pick(&gates), cref * (1.0 + 9.0 * rng.next_f64())))
            .collect();
        graph.resize_gates(batch);
        if rng.below(3) > 0 {
            let latest = graph.critical_delay_ps();
            graph.set_constraint(match rng.below(4) {
                0 => latest,
                1 => f64::from_bits(latest.to_bits() - 1),
                2 => f64::from_bits(latest.to_bits() + 1),
                _ => t0 * (0.8 + 0.4 * rng.next_f64()),
            });
        }
        let flushes = graph.stats().backward_flushes;
        let meets = graph.meets_constraint();
        let exact = graph.clone().worst_slack_overall_ps().map(|s| s >= 0.0);
        assert_eq!(
            meets, exact,
            "step {step}: meets_constraint against the worst-slack sign"
        );
        match (graph.stats().backward_flushes - flushes, meets) {
            (0, Some(false)) => failed += 1,
            (0, Some(true)) => met += 1,
            (1, _) => band += 1,
            other => panic!("step {step}: unexpected flushes and answer {other:?}"),
        }
        if step % 10 == 9 {
            assert_lazy_equals_eager(&graph, &lib, step);
        }
    }
    assert!(
        failed > 0 && met > 0 && band > 0,
        "every path must run: {failed} failed, {met} met, {band} in the band"
    );
}

#[test]
fn fpd_lazy_matches_eager() {
    random_lazy_sequence("fpd", 0x01A2_F00D, 48, 5);
}

#[test]
fn c432_lazy_matches_eager() {
    random_lazy_sequence("c432", 0x01A2_0432, 48, 5);
}

#[test]
fn c880_lazy_matches_eager() {
    random_lazy_sequence("c880", 0x01A2_0880, 40, 5);
}

#[test]
fn c1908_lazy_matches_eager() {
    random_lazy_sequence("c1908", 0x01A2_1908, 32, 4);
}

#[test]
fn c6288_lazy_matches_eager() {
    // The multiplier is the heavyweight: fewer steps keep the fresh
    // reference passes affordable in debug builds.
    random_lazy_sequence("c6288", 0x01A2_6288, 12, 3);
}

#[test]
fn c7552_lazy_matches_eager() {
    random_lazy_sequence("c7552", 0x01A2_7552, 12, 3);
}

#[test]
fn mutation_alone_never_flushes() {
    // The lazy contract as a property: no sequence of mutations — plain
    // resizes, batches, surgery — performs backward work; only slack
    // queries do, once per generation. A k-paths query derives its
    // bounds from the forward state alone: it flushes forward and never
    // backward.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut rng = SplitMix64::new(0x01A2_CAFE);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let cref = lib.min_drive_ff();

    let baseline = graph.stats();
    assert_eq!(
        baseline.backward_flushes, 0,
        "set_constraint must not flush"
    );
    assert_eq!(baseline.required_reevaluated, 0);

    for step in 0..60 {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        if step % 20 == 19 {
            if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                graph.apply_edits(&plan).unwrap();
            }
        } else {
            let g = *rng.pick(&gates);
            graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
        }
        let s = graph.stats();
        assert_eq!(s.backward_flushes, 0, "step {step}: mutation flushed");
        assert_eq!(s.required_reevaluated, 0, "step {step}: required work");
    }

    // A k-paths query on the constrained graph: one forward flush, no
    // backward flush, no required-time work.
    let before_kpaths = graph.stats();
    let _ = k_most_critical_paths(graph.circuit(), &graph, 4);
    let after_kpaths = graph.stats();
    assert_eq!(
        after_kpaths.forward_flushes,
        before_kpaths.forward_flushes + 1
    );
    assert_eq!(after_kpaths.backward_flushes, 0, "k-paths flushed backward");
    assert_eq!(
        after_kpaths.required_reevaluated, 0,
        "k-paths paid required times"
    );
    assert_eq!(after_kpaths.completion_reevaluated, 0);

    // One slack query: exactly one backward flush.
    let _ = graph.worst_slack_overall_ps();
    let after_slack = graph.stats();
    assert_eq!(after_slack.backward_flushes, 1);
    assert!(after_slack.required_reevaluated > 0);

    // Repeat queries on a clean generation are free.
    let _ = graph.worst_slack_overall_ps();
    let _ = k_most_critical_paths(graph.circuit(), &graph, 4);
    assert_eq!(graph.stats(), after_slack);

    // And the state all of this lands on is the eager one.
    assert_lazy_equals_eager(&graph, &lib, usize::MAX);
}

#[test]
fn all_infinite_slack_designs_report_no_worst_slack() {
    // Regression guard for the design-worst fold: when no endpoint
    // carries a finite slack, the fold must stay at the `+inf` neutral
    // element and `worst_slack_overall_ps` must report `None` — on the
    // first sweep, after a resize and across graph surgery that grows
    // the slabs. Folding the `+inf` keys into a finite answer would
    // read as an infinitely relaxed design being constrained by
    // nothing in particular.
    use pops::netlist::{CellKind, Circuit};
    let lib = Library::cmos025();
    // Gates, but nothing marked as a primary output: every required
    // time is +inf, every slack +inf.
    let mut c = Circuit::new("no-po");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let y = c.add_gate(CellKind::Nand2, &[a, b], "y").unwrap();
    let z = c.add_gate(CellKind::Nor2, &[y, a], "z").unwrap();
    let _w = c.add_gate(CellKind::Inv, &[z], "w").unwrap();
    let mut graph = TimingGraph::new(&c, &lib, &Sizing::minimum(&c, &lib)).unwrap();
    graph.set_constraint(100.0);
    // The first sweep.
    assert_eq!(graph.worst_slack_overall_ps(), None);
    // A resize whose arrivals move: all keys still +inf.
    let g = graph.circuit().gate_ids().next().unwrap();
    graph.resize_gate(g, 5.0 * lib.min_drive_ff());
    assert_eq!(graph.worst_slack_overall_ps(), None);
    // Surgery grows the net space (zero-PO still): the post-surgery
    // sweep must fill the grown slab with the neutral element, not
    // garbage.
    let net = graph
        .circuit()
        .net_ids()
        .find(|&n| graph.circuit().driver_gate(n).is_some() && graph.circuit().net(n).fanout() >= 1)
        .unwrap();
    let loads = graph.circuit().net(net).loads().to_vec();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net,
        loads,
        stage_cin_ff: [lib.min_drive_ff(), lib.min_drive_ff()],
    }]
    .into();
    graph.apply_edits(&plan).unwrap();
    assert_eq!(graph.worst_slack_overall_ps(), None);
    // An infinite constraint on a real (PO-carrying) circuit is the
    // same situation: +inf required everywhere, no finite slack.
    let real = suite::circuit("fpd").unwrap();
    let mut graph = TimingGraph::new(&real, &lib, &Sizing::minimum(&real, &lib)).unwrap();
    graph.set_constraint(f64::INFINITY);
    assert_eq!(graph.worst_slack_overall_ps(), None);
    let g = real.gate_ids().next().unwrap();
    graph.resize_gate(g, 3.0 * lib.min_drive_ff());
    assert_eq!(graph.worst_slack_overall_ps(), None);
    // A finite constraint immediately restores a finite worst slack.
    graph.set_constraint(1000.0);
    assert!(graph.worst_slack_overall_ps().is_some());
}

#[test]
fn merged_flush_does_less_work_than_per_mutation_flushes() {
    // N resizes + one query must re-evaluate (far) fewer required times
    // than N eager per-resize updates would have: the lazy state sweeps
    // once for the whole burst.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c1908").unwrap();
    let mut rng = SplitMix64::new(0x01A2_BEEF);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();

    let run = |queries_per_resize: bool, rng: &mut SplitMix64| -> usize {
        let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
        graph.set_constraint(0.9 * graph.critical_delay_ps());
        let _ = graph.worst_slack_overall_ps();
        let before = graph.stats().required_reevaluated;
        for _ in 0..32 {
            let g = *rng.pick(&gates);
            graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
            if queries_per_resize {
                let _ = graph.worst_slack_overall_ps();
            }
        }
        let _ = graph.worst_slack_overall_ps();
        graph.stats().required_reevaluated - before
    };

    let mut rng_eager = SplitMix64::new(rng.next_u64());
    let eager = run(true, &mut rng_eager);
    let mut rng_lazy = SplitMix64::new(rng_eager.next_u64());
    // Different gates, same distribution — compare magnitudes, not bits.
    let lazy = run(false, &mut rng_lazy);
    assert!(
        lazy * 2 < eager,
        "merged flush ({lazy}) should be well under per-resize flushing ({eager})"
    );
}
