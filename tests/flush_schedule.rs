//! Flush scheduling: the lazy forward drains, the drain-to-sweep
//! cut-overs and the backward sweeps must land on the bits of a
//! from-scratch pass, and every forward read flushes before it answers.
//!
//! Covered here: random mutation bursts on the synth10k fabric (wide
//! levels, spread cones, frequent full-sweep cut-overs) checked against
//! fresh `analyze_with` / `required_times` passes — with the k-paths
//! bounds derived over the graph checked against `completion_bounds`
//! over the fresh report — and the deep-consistency audit; the forward
//! cut-over rule's two ways to the sweep — a saturated count and the
//! closure estimate on spread seeds — each firing where it should
//! without changing bits; the backward sweep after a constraint change;
//! the uniform flushing contract of `net_load_ff` and
//! `gate_delay_worst_ps`; slack and required reads on a fanout-free net,
//! which flush forward only, and only their fanin cone; the Vt pass's
//! probe loop decided by `meets_constraint`, which never flushes
//! backward and leaves one deferred flush that lands on fresh bits; and
//! validity and determinism of the synthetic scaling fabrics.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{builders, suite, VtClass};
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, AnalyzeOptions, EdgeDir};
use pops::sta::kpaths::completion_bounds;
use pops::sta::TimingGraph;

/// The critical delay matches a from-scratch pass.
fn assert_matches_eager(graph: &TimingGraph, lib: &Library, label: &str) {
    let fresh =
        analyze_with(graph.circuit(), lib, graph.sizing(), graph.options()).expect("acyclic");
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        fresh.critical_delay_ps().to_bits(),
        "{label}: diverged from the eager pass"
    );
}

/// A buffer-insertion plan on a random fanout-heavy driven net of the
/// current circuit.
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

/// Every queryable value of `graph` matches fresh full passes —
/// forward, required times under its constraint and k-paths completion
/// bounds — and its internal state passes the deep-consistency audit.
fn assert_matches_fresh(graph: &TimingGraph, lib: &Library, label: &str) {
    let circuit = graph.circuit();
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).expect("acyclic");
    let tc = graph.constraint_ps().expect("constraint set");
    let slacks = required_times(circuit, lib, graph.sizing(), &fresh, tc).expect("acyclic");
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        fresh.critical_delay_ps().to_bits(),
        "{label}: critical delay diverged"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.arrival_ps(net, dir).to_bits(),
                fresh.arrival_ps(net, dir).to_bits(),
                "{label}: arrival of {net} {dir:?}"
            );
            assert_eq!(
                graph.slope_ps(net, dir).to_bits(),
                fresh.slope_ps(net, dir).to_bits(),
                "{label}: slope of {net} {dir:?}"
            );
            assert_eq!(
                graph.required_ps(net, dir).to_bits(),
                slacks.required_ps(net, dir).to_bits(),
                "{label}: required of {net} {dir:?}"
            );
            assert_eq!(
                graph.slack_ps(net, dir).to_bits(),
                slacks.slack_ps(net, dir).to_bits(),
                "{label}: slack of {net} {dir:?}"
            );
        }
        assert_eq!(
            graph.net_load_ff(net).to_bits(),
            fresh.net_load_ff(net).to_bits(),
            "{label}: load of {net}"
        );
    }
    let bounds = completion_bounds(circuit, &fresh);
    let via_graph = completion_bounds(circuit, graph);
    for g in circuit.gate_ids() {
        assert_eq!(
            graph.gate_delay_worst_ps(g).to_bits(),
            fresh.gate_delay_worst_ps(g).to_bits(),
            "{label}: worst delay of {g}"
        );
        assert_eq!(
            via_graph[g.index()].to_bits(),
            bounds[g.index()].to_bits(),
            "{label}: completion bound of {g}"
        );
    }
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "{label}: design-worst slack diverged"
    );
    assert_eq!(
        graph.critical_path().gates,
        fresh.critical_path().gates,
        "{label}: critical path diverged"
    );
    graph
        .verify_state()
        .unwrap_or_else(|e| panic!("{label}: deep-consistency audit failed: {e}"));
}

/// Drive one graph through `steps` random mutation bursts — resizes,
/// surgery and constraint changes — checking it against fresh
/// passes every `check_every` steps and at the end.
fn random_forward_sequence(circuit: Circuit, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        match rng.below(8) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                // Structural surgery: re-levels, re-ranks and re-slots
                // under pending seeds.
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            3 => graph.set_constraint(t0 * (0.7 + 0.6 * rng.next_f64())),
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
            }
        }
        if step % check_every == check_every - 1 {
            assert_matches_fresh(&graph, &lib, &format!("step {step}"));
        }
    }
    assert_matches_fresh(&graph, &lib, "final");
}

/// Backward-focused bursts: every burst is *immediately* followed by
/// backward queries, so the backward sweep fires once per burst — after
/// whatever forward flush the burst schedule leaves behind — instead of
/// only at the periodic checks.
fn random_backward_sequence(circuit: Circuit, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.92 * t0);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        match rng.below(6) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            // A new constraint: the queries below sweep from scratch.
            2 => graph.set_constraint(t0 * (0.7 + 0.6 * rng.next_f64())),
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
            }
        }
        // Flush the backward state every burst.
        let _ = graph.worst_slack_overall_ps();
        let probe_net = *rng.pick(&graph.circuit().net_ids().collect::<Vec<_>>());
        let _ = graph.slack_ps(probe_net, EdgeDir::Rising);
        if step % check_every == check_every - 1 {
            assert_matches_fresh(&graph, &lib, &format!("step {step}"));
        }
    }
    assert_matches_fresh(&graph, &lib, "final");
}

#[test]
fn synth10k_forward_bursts_match_eager() {
    // Wide random-logic levels and spread cones: drains, budgeted and
    // adaptive full-sweep cut-overs all fire within a few bursts.
    let c = suite::scaling_circuit("synth10k").unwrap();
    random_forward_sequence(c, 0x9A51_E010, 6, 3);
}

#[test]
fn synth10k_backward_bursts_match_eager() {
    let c = suite::scaling_circuit("synth10k").unwrap();
    random_backward_sequence(c, 0xBAC4_E010, 5, 3);
}

#[test]
#[ignore = "expensive: 100k-gate fabric; run with --ignored (CI release job does)"]
fn synth100k_backward_bursts_match_eager() {
    let c = suite::scaling_circuit("synth100k").unwrap();
    random_backward_sequence(c, 0xBAC4_E100, 3, 2);
}

#[test]
fn backward_full_sweep_fires_and_is_bit_identical() {
    // After a constraint change the next slack query runs the
    // gate-centric full sweep — proven by the reevaluation count
    // covering every net — and lands on the bits of a fresh backward
    // pass.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let t0 = graph.critical_delay_ps();
    let n_nets = circuit.net_count();
    for tc in [0.9 * t0, 0.8 * t0, 1.1 * t0] {
        graph.set_constraint(tc);
        let before = graph.stats().required_reevaluated;
        let _ = graph.worst_slack_overall_ps();
        assert!(
            graph.stats().required_reevaluated - before >= n_nets,
            "a post-constraint flush must run the full sweep"
        );
        assert_matches_fresh(&graph, &lib, &format!("tc {tc}"));
    }
}

#[test]
fn adaptive_cutover_fires_on_spread_seeds_and_keeps_bits() {
    // An eighth of the fabric's gates resized, spread evenly: the seed
    // *count* sits far below the ¾-gate forward budget, but the fanout
    // closure is essentially the whole circuit — the level-span
    // estimator must cut over to the full sweep (every gate evaluated,
    // zero convergence cuts) and still land on the eager pass's bits.
    let lib = Library::cmos025();
    let circuit = suite::scaling_circuit("synth10k").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    let _ = graph.worst_slack_overall_ps();

    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let n_gates = gates.len();
    let cref = lib.min_drive_ff();
    let batch: Vec<(GateId, f64)> = gates
        .iter()
        .step_by(8)
        .enumerate()
        .map(|(i, &g)| (g, cref * (1.5 + 0.01 * (i % 7) as f64)))
        .collect();
    assert!(batch.len() * 4 >= n_gates / 2, "spread batch too sparse");
    graph.resize_gates(batch);

    let before = graph.stats();
    let _ = graph.critical_delay_ps();
    let after = graph.stats();
    assert_eq!(
        after.gates_reevaluated - before.gates_reevaluated,
        n_gates,
        "the spread union must cut over to the full sweep"
    );
    assert_eq!(
        after.converged_early, before.converged_early,
        "a full sweep takes no convergence cuts"
    );
    assert_matches_eager(&graph, &lib, "adaptive cut-over");

    // A single-gate probe afterwards stays on the drain: the estimator
    // is guarded out below 32 seeds, and one cone converges early.
    graph.resize_gate(gates[n_gates / 2], 2.0 * cref);
    let before = graph.stats();
    let _ = graph.critical_delay_ps();
    let after = graph.stats();
    assert!(
        after.gates_reevaluated - before.gates_reevaluated < n_gates,
        "a probe cone must not trigger the adaptive sweep"
    );
}

#[test]
fn forward_reads_flush_once_and_match_a_fresh_pass() {
    // `gate_delay_worst_ps` and `net_load_ff` are ordinary flushing
    // reads, like every other forward query: with pure resizes pending
    // on a constrained graph, whichever is read first drains the merged
    // forward cone — one forward flush, no backward flush — later
    // forward reads on the clean generation cost nothing, and every
    // answer carries the bits of a fresh full pass.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let _ = graph.worst_slack_overall_ps();
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();

    for (round, load_first) in [false, true].into_iter().enumerate() {
        let batch: Vec<(GateId, f64)> = gates
            .iter()
            .skip(round)
            .step_by(97)
            .map(|&g| (g, (3.0 + round as f64) * cref))
            .collect();
        let probe = batch[batch.len() / 2].0;
        let probe_net = circuit.gate(probe).inputs()[0];
        graph.resize_gates(batch);
        let fresh = analyze_with(&circuit, &lib, graph.sizing(), graph.options()).unwrap();

        let before = graph.stats();
        let (first, want) = if load_first {
            (graph.net_load_ff(probe_net), fresh.net_load_ff(probe_net))
        } else {
            (
                graph.gate_delay_worst_ps(probe),
                fresh.gate_delay_worst_ps(probe),
            )
        };
        assert_eq!(first.to_bits(), want.to_bits(), "round {round}: first read");
        let after_first = graph.stats();
        assert_eq!(
            after_first.forward_flushes,
            before.forward_flushes + 1,
            "round {round}: the first forward read must flush forward once"
        );
        assert_eq!(
            after_first.backward_flushes, before.backward_flushes,
            "round {round}: a forward read must not flush backward"
        );

        for &g in &gates {
            assert_eq!(
                graph.gate_delay_worst_ps(g).to_bits(),
                fresh.gate_delay_worst_ps(g).to_bits(),
                "round {round}: worst delay of {g}"
            );
        }
        for net in circuit.net_ids() {
            assert_eq!(
                graph.net_load_ff(net).to_bits(),
                fresh.net_load_ff(net).to_bits(),
                "round {round}: load of {net}"
            );
        }
        assert_eq!(
            graph.stats(),
            after_first,
            "round {round}: later forward reads must not flush"
        );
    }
}

/// Gates in the fanin cone of `net`'s driver, the driver included.
fn fanin_cone(circuit: &Circuit, net: NetId) -> Vec<GateId> {
    let mut seen = vec![false; circuit.gate_count()];
    let mut stack: Vec<GateId> = circuit.driver_gate(net).into_iter().collect();
    let mut cone = Vec::new();
    while let Some(g) = stack.pop() {
        if std::mem::replace(&mut seen[g.index()], true) {
            continue;
        }
        cone.push(g);
        for &n in circuit.gate(g).inputs() {
            stack.extend(circuit.driver_gate(n));
        }
    }
    cone
}

#[test]
fn a_cone_read_that_drains_every_mark_still_moves_the_critical_output() {
    // Two separate inverter chains, each to its own primary output;
    // the longer one is critical. Loading the short chain's middle
    // stage with a wide last stage makes the short chain critical. The
    // slack read at its output drains every mark (all sit in its
    // cone), so the next full read finds nothing to drain, and must
    // still re-derive the critical output.
    let lib = Library::cmos025();
    let mut circuit = Circuit::new("two_chains");
    let chain = |circuit: &mut Circuit, name: &str, stages: usize| {
        let mut net = circuit.add_input(format!("{name}_in"));
        let mut gates = Vec::new();
        for i in 0..stages {
            net = circuit
                .add_gate(CellKind::Inv, &[net], format!("{name}{i}"))
                .unwrap();
            gates.push(circuit.driver_gate(net).unwrap());
        }
        circuit.mark_output(net);
        (net, gates)
    };
    let (short_out, short) = chain(&mut circuit, "short", 3);
    let (long_out, _) = chain(&mut circuit, "long", 5);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    let tc = graph.critical_delay_ps();
    graph.set_constraint(tc);
    let _ = graph.worst_slack_overall_ps();
    assert_eq!(graph.critical_path().gates.len(), 5, "the long chain leads");

    graph.resize_gates([(short[2], 200.0 * lib.min_drive_ff())]);
    let fresh = analyze_with(&circuit, &lib, graph.sizing(), graph.options()).unwrap();
    assert!(
        fresh
            .arrival_ps(short_out, EdgeDir::Rising)
            .max(fresh.arrival_ps(short_out, EdgeDir::Falling))
            > fresh
                .arrival_ps(long_out, EdgeDir::Rising)
                .max(fresh.arrival_ps(long_out, EdgeDir::Falling)),
        "the loaded short chain leads"
    );
    let slack = graph.worst_slack_ps(short_out);
    assert!(slack < 0.0, "the short chain now misses tc: {slack}");
    let drained = graph.stats();
    let _ = graph.worst_slack_ps(long_out);
    assert_eq!(
        graph.stats(),
        drained,
        "the short chain's cone held every mark"
    );
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        fresh.critical_delay_ps().to_bits(),
        "critical delay after the cone read"
    );
    assert_eq!(graph.critical_path().gates, short);
    assert_eq!(graph.stats().forward_flushes, drained.forward_flushes);
}

#[test]
fn fanout_free_slack_reads_flush_forward_only() {
    // A net that feeds no gate ends no arc: its required time is tc at a
    // primary output whatever is pending, and its arrival depends on
    // its driver's fanin cone alone. With resizes pending on a
    // constrained graph, slack and required reads there drain only the
    // marks in that cone, never flush backward, and carry the bits of
    // fresh passes; the next read that needs the whole state drains
    // what the cones left, forward and backward.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    let tc = 0.9 * graph.critical_delay_ps();
    graph.set_constraint(tc);
    let _ = graph.worst_slack_overall_ps();
    let endpoints: Vec<NetId> = circuit
        .primary_outputs()
        .iter()
        .copied()
        .filter(|&n| circuit.net(n).fanout() == 0)
        .collect();
    assert!(endpoints.len() > 1, "c880 has fanout-free primary outputs");
    let cref = lib.min_drive_ff();
    let batch: Vec<(GateId, f64)> = circuit
        .gate_ids()
        .step_by(53)
        .map(|g| (g, 3.0 * cref))
        .collect();
    graph.resize_gates(batch);
    let fresh = analyze_with(&circuit, &lib, graph.sizing(), graph.options()).unwrap();
    let slacks = required_times(&circuit, &lib, graph.sizing(), &fresh, tc).unwrap();
    // The same marks drained by one merged flush.
    let merged = graph.clone();
    let _ = merged.worst_slack_overall_ps();
    let merged_evals = merged.stats().gates_reevaluated - graph.stats().gates_reevaluated;

    let start = graph.stats();
    let mut drained = Vec::new();
    for &endpoint in &endpoints {
        let before = graph.stats();
        assert_eq!(
            graph.worst_slack_ps(endpoint).to_bits(),
            slacks.worst_slack_ps(endpoint).to_bits(),
            "worst slack of {endpoint}"
        );
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.required_ps(endpoint, dir).to_bits(),
                slacks.required_ps(endpoint, dir).to_bits(),
                "required time of {endpoint}, {dir:?}"
            );
        }
        let after = graph.stats();
        let evals = after.gates_reevaluated - before.gates_reevaluated;
        assert!(
            evals <= fanin_cone(&circuit, endpoint).len(),
            "{endpoint}: {evals} re-evaluations outside its fanin cone"
        );
        assert_eq!(
            after.forward_flushes - before.forward_flushes,
            usize::from(evals > 0),
            "{endpoint}: one forward flush when its cone holds marks, none otherwise"
        );
        assert_eq!(
            after.backward_flushes, before.backward_flushes,
            "{endpoint}: reads on a fanout-free net must not flush backward"
        );
        drained.push(evals);
    }
    let after = graph.stats();
    assert!(
        drained.iter().any(|&e| e > 0) && drained.contains(&0),
        "some cones hold marks and some do not: {drained:?}"
    );

    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "design-worst slack after the cone flushes"
    );
    let end = graph.stats();
    assert_eq!(
        end.backward_flushes,
        after.backward_flushes + 1,
        "the design-worst read must flush backward once"
    );
    assert_eq!(
        end.gates_reevaluated - start.gates_reevaluated,
        merged_evals,
        "the cones and the rest re-evaluate exactly the gates one merged flush does"
    );
    assert_matches_fresh(&graph, &lib, "after the fanout-free reads");
}

#[test]
fn vt_probes_decided_on_the_forward_state_defer_every_backward_flush() {
    // The flow's Vt pass on c880: three corners at 1.4·T0, every gate
    // demoted to HVT in turn and kept when the design still meets tc.
    // Decided by `meets_constraint`, no probe flushes backward (the
    // worst-slack rule pays one full backward sweep per probe) and the
    // loop keeps exactly the gates that rule keeps. The one backward
    // sweep the next slack read runs lands on a fresh graph's bits.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    let options = AnalyzeOptions::default();
    let sizing = Sizing::minimum(&circuit, &lib);
    let build = || TimingGraph::with_corners(&circuit, &lib, &sizing, &options, &corners).unwrap();
    let (mut graph, mut reference) = (build(), build());
    let tc = 1.4 * graph.critical_delay_ps();
    graph.set_constraint(tc);
    reference.set_constraint(tc);
    let start = graph.stats();
    assert_eq!(
        graph.meets_constraint(),
        Some(true),
        "1.4·T0 leaves headroom"
    );
    let ref_start = reference.stats();

    let (mut kept, mut ref_kept) = (Vec::new(), Vec::new());
    for g in circuit.gate_ids() {
        graph.set_vt_class(g, VtClass::Hvt);
        if graph.meets_constraint() == Some(true) {
            kept.push(g);
        } else {
            graph.set_vt_class(g, VtClass::Svt);
        }
        reference.set_vt_class(g, VtClass::Hvt);
        if matches!(reference.worst_slack_overall_ps(), Some(s) if s >= 0.0) {
            ref_kept.push(g);
        } else {
            reference.set_vt_class(g, VtClass::Svt);
        }
    }
    let probed = graph.stats();
    assert_eq!(
        probed.backward_flushes, start.backward_flushes,
        "no probe decided on the forward state flushes backward"
    );
    assert_eq!(probed.required_reevaluated, start.required_reevaluated);
    assert_eq!(
        reference.stats().backward_flushes - ref_start.backward_flushes,
        circuit.gate_count(),
        "the worst-slack rule flushes backward once per probe"
    );
    assert_eq!(
        reference.stats().required_reevaluated - ref_start.required_reevaluated,
        circuit.gate_count() * circuit.net_count(),
        "each of its flushes is a full sweep"
    );
    assert_eq!(
        probed.gates_reevaluated - start.gates_reevaluated,
        reference.stats().gates_reevaluated - ref_start.gates_reevaluated,
        "both rules re-time the same forward cones"
    );
    assert_eq!(kept, ref_kept, "both rules keep the same gates");
    assert!(
        !kept.is_empty() && kept.len() < circuit.gate_count(),
        "{} of {} demotions kept; the loop needs both outcomes",
        kept.len(),
        circuit.gate_count()
    );

    let mut fresh = build();
    for &g in &kept {
        fresh.set_vt_class(g, VtClass::Hvt);
    }
    fresh.set_constraint(tc);
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        fresh.worst_slack_overall_ps().map(f64::to_bits),
        "design-worst slack after the deferred flush"
    );
    assert_eq!(graph.stats().backward_flushes, probed.backward_flushes + 1);
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            for c in 0..graph.n_corners() {
                assert_eq!(
                    graph.required_ps_corner(net, dir, c).to_bits(),
                    fresh.required_ps_corner(net, dir, c).to_bits(),
                    "corner {c} required time of {net}, {dir:?}"
                );
            }
        }
    }
    graph
        .verify_state()
        .unwrap_or_else(|e| panic!("deep-consistency audit failed: {e}"));
}

#[test]
#[ignore = "expensive: 100k-gate fabric; run with --ignored (CI release job does)"]
fn synth100k_forward_bursts_match_eager() {
    // The headline class: a ≥100k-gate fabric under mixed bursts. The
    // full per-net bit sweep per check is what makes this expensive,
    // not the flushes.
    let c = suite::scaling_circuit("synth100k").unwrap();
    random_forward_sequence(c, 0x9A51_E100, 4, 2);
}

#[test]
fn scaling_fabrics_are_valid_and_deterministic() {
    {
        let class = "synth10k";
        let spec = suite::scaling_class(class).unwrap();
        let c = suite::scaling_circuit(class).unwrap();
        assert_eq!(
            c.gate_count(),
            spec.target_gates,
            "{class}: generator must hit the target exactly"
        );
        // Structurally sound: acyclic, fully driven, realistically deep.
        let topo = c.topo_order().expect("fabric must be acyclic");
        assert_eq!(topo.len(), c.gate_count());
        let levels = c.logic_levels().expect("fabric must level");
        let depth = levels.iter().copied().max().unwrap_or(0);
        assert!(depth >= 16, "{class}: implausibly shallow (depth {depth})");
        assert!(!c.primary_outputs().is_empty(), "{class}: no outputs");
        // Deterministic: the same class builds bit-identical timing.
        let c2 = suite::scaling_circuit(class).unwrap();
        assert_eq!(c.gate_count(), c2.gate_count());
        assert_eq!(c.net_count(), c2.net_count());
        let lib = Library::cmos025();
        let t1 = analyze_with(
            &c,
            &lib,
            &Sizing::minimum(&c, &lib),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        let t2 = analyze_with(
            &c2,
            &lib,
            &Sizing::minimum(&c2, &lib),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert_eq!(
            t1.critical_delay_ps().to_bits(),
            t2.critical_delay_ps().to_bits(),
            "{class}: generator must be deterministic"
        );
    }
    // The component builders compose the fabric; sanity-check them at
    // sizes the netlist unit tests do not cover.
    let csa = builders::carry_select_adder(64, 8);
    assert!(csa.topo_order().is_ok());
    let mult = builders::array_multiplier(16);
    assert!(mult.topo_order().is_ok());
    let cloud = builders::random_logic_cloud(64, 5_000, 0xC10D_5EED);
    assert_eq!(cloud.gate_count(), 5_000);
    assert!(cloud.topo_order().is_ok());
}
