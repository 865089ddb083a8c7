//! The timing engine's validated mutation boundary: malformed input is
//! rejected with a typed [`StaError`] before any state changes. The
//! faults are malformed inputs handed straight to the `try_*` entry
//! points; nothing is injected inside the engine.
//!
//! * a corrupted mutation batch is rejected **atomically** at the
//!   `try_*` boundary: typed error out, graph bit-untouched;
//! * the validated boundaries reject out-of-range ids, non-finite
//!   drives/constraints and malformed edit plans with typed
//!   [`StaError`]s, never by corrupting state;
//! * the timing entry points reject a sizing whose length is not the
//!   circuit's gate count with a typed [`NetlistError`];
//! * [`TimingGraph::verify_state`] (the deep-consistency audit) passes
//!   on fresh, mutated, edited and multi-corner graphs.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{builders, suite, NetlistError, VtClass};
use pops::prelude::*;
use pops::sta::analysis::EdgeDir;
use pops::sta::{StaError, TimingGraph};

/// Every queryable value of `a` and `b` is bit-identical.
fn assert_graphs_bit_equal(a: &TimingGraph, b: &TimingGraph, label: &str) {
    let circuit = a.circuit();
    assert_eq!(
        a.critical_delay_ps().to_bits(),
        b.critical_delay_ps().to_bits(),
        "{label}: critical delay diverged"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                a.arrival_ps(net, dir).to_bits(),
                b.arrival_ps(net, dir).to_bits(),
                "{label}: arrival of {net} {dir:?}"
            );
            assert_eq!(
                a.slope_ps(net, dir).to_bits(),
                b.slope_ps(net, dir).to_bits(),
                "{label}: slope of {net} {dir:?}"
            );
            assert_eq!(
                a.slack_ps(net, dir).to_bits(),
                b.slack_ps(net, dir).to_bits(),
                "{label}: slack of {net} {dir:?}"
            );
        }
        assert_eq!(
            a.net_load_ff(net).to_bits(),
            b.net_load_ff(net).to_bits(),
            "{label}: load of {net}"
        );
    }
    for g in circuit.gate_ids() {
        assert_eq!(
            a.gate_delay_worst_ps(g).to_bits(),
            b.gate_delay_worst_ps(g).to_bits(),
            "{label}: worst delay of {g}"
        );
        assert_eq!(
            a.completion_ps(g).to_bits(),
            b.completion_ps(g).to_bits(),
            "{label}: completion bound of {g}"
        );
    }
    assert_eq!(
        a.worst_slack_overall_ps().map(f64::to_bits),
        b.worst_slack_overall_ps().map(f64::to_bits),
        "{label}: design-worst slack diverged"
    );
    assert_eq!(
        a.critical_path().gates,
        b.critical_path().gates,
        "{label}: critical path diverged"
    );
}

/// A buffer-insertion plan on a random fanout-heavy driven net.
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

#[test]
fn corrupted_batch_is_rejected_atomically() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("c432").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let mut reference = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    reference.set_constraint(0.9 * t0);

    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let batch: Vec<(GateId, f64)> = gates
        .iter()
        .take(4)
        .map(|&g| (g, 3.0 * lib.min_drive_ff()))
        .collect();

    // A NaN drive behind two valid entries: nothing may be applied.
    let mut corrupted = batch.clone();
    corrupted[2].1 = f64::NAN;
    let err = graph
        .try_resize_gates(corrupted)
        .expect_err("a corrupted batch must be rejected");
    assert!(
        matches!(err, StaError::InvalidDrive { .. }),
        "wrong rejection: {err}"
    );
    assert!(
        err.to_string().contains("NaN"),
        "error must name the value: {err}"
    );

    // Atomicity: the graph is bit-untouched by the rejected batch...
    assert_graphs_bit_equal(&graph, &reference, "after rejected batch");
    graph.verify_state().expect("audit after rejected batch");

    // ...and the clean batch applies.
    graph
        .try_resize_gates(batch.clone())
        .expect("clean batch applies");
    reference.resize_gates(batch);
    assert_graphs_bit_equal(&graph, &reference, "after clean re-apply");
}

#[test]
fn constraint_boundary_rejects_nan_and_negative() {
    let lib = Library::cmos025();
    let circuit = builders::inverter_chain(4);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();

    let err = graph.try_set_constraint(f64::NAN).unwrap_err();
    assert!(matches!(err, StaError::InvalidConstraint { .. }));
    assert!(
        err.to_string().contains("NaN"),
        "must name the value: {err}"
    );
    let err = graph.try_set_constraint(-3.0).unwrap_err();
    assert!(err.to_string().contains("-3"), "must name the value: {err}");
    let err = graph.try_set_constraint(f64::NEG_INFINITY).unwrap_err();
    assert!(matches!(err, StaError::InvalidConstraint { .. }));

    // Zero and +inf are meaningful constraints (everything violated /
    // nothing constrained) and must keep working.
    graph.try_set_constraint(0.0).unwrap();
    graph.try_set_constraint(f64::INFINITY).unwrap();
    graph.try_set_constraint(250.0).unwrap();
    graph.verify_state().expect("audit after constraint churn");
}

#[test]
fn id_boundaries_reject_foreign_gates() {
    let lib = Library::cmos025();
    let small = builders::inverter_chain(3);
    let mut graph = TimingGraph::new(&small, &lib, &Sizing::minimum(&small, &lib)).unwrap();
    let d0 = graph.critical_delay_ps().to_bits();

    // A high-index id from a bigger circuit is the realistic stale-id
    // bug: a handle from a pre-surgery snapshot used after rebuild.
    let big = suite::circuit("c432").unwrap();
    let foreign = big.gate_ids().last().unwrap();

    let err = graph.try_resize_gate(foreign, 5.0).unwrap_err();
    assert!(
        matches!(err, StaError::GateOutOfRange { n_gates: 3, .. }),
        "wrong rejection: {err}"
    );
    let err = graph.try_set_vt_class(foreign, VtClass::Hvt).unwrap_err();
    assert!(matches!(err, StaError::GateOutOfRange { .. }));

    // Non-finite / non-positive drives, with a valid id.
    let g = small.gate_ids().next().unwrap();
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let err = graph.try_resize_gate(g, bad).unwrap_err();
        assert!(
            matches!(err, StaError::InvalidDrive { .. }),
            "cin {bad}: wrong rejection {err}"
        );
    }
    // A batch with one bad entry is rejected whole.
    let err = graph
        .try_resize_gates(vec![(g, 4.0), (foreign, 4.0)])
        .unwrap_err();
    assert!(matches!(err, StaError::GateOutOfRange { .. }));

    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        d0,
        "rejected mutations must not move timing"
    );
    graph.verify_state().expect("audit after rejections");
}

#[test]
fn timing_entry_points_reject_a_sizing_of_another_circuit() {
    // A longer sizing would be timed and counted in `total_cin_ff`, a
    // shorter one would index out of bounds: both are the caller's
    // mistake and come back as a typed error naming both counts.
    let lib = Library::cmos025();
    let adder4 = builders::ripple_carry_adder(4);
    let options = pops::sta::analysis::AnalyzeOptions::default();
    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    for other in [builders::ripple_carry_adder(8), builders::inverter_chain(3)] {
        let sizing = Sizing::minimum(&other, &lib);
        let results = [
            ("new", TimingGraph::new(&adder4, &lib, &sizing).err()),
            (
                "with_options",
                TimingGraph::with_options(&adder4, &lib, &sizing, &options).err(),
            ),
            (
                "with_corners",
                TimingGraph::with_corners(&adder4, &lib, &sizing, &options, &corners).err(),
            ),
            ("analyze", analyze(&adder4, &lib, &sizing).err()),
        ];
        for (entry, err) in results {
            let Some(NetlistError::InvalidId(what)) = err else {
                panic!(
                    "{entry}: {} entries for 36 gates gave {err:?}",
                    sizing.len()
                );
            };
            assert!(
                what.contains(&format!("{} entries", sizing.len())) && what.contains("36 gates"),
                "{entry}: {what}"
            );
        }
    }
}

#[test]
fn edit_plan_boundary_rejects_malformed_plans() {
    let lib = Library::cmos025();
    let small = builders::inverter_chain(3);
    let mut graph = TimingGraph::new(&small, &lib, &Sizing::minimum(&small, &lib)).unwrap();
    let d0 = graph.critical_delay_ps().to_bits();
    let n_gates = graph.circuit().gate_count();

    let big = suite::circuit("c432").unwrap();
    let foreign_net = big.net_ids().last().unwrap();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net: foreign_net,
        loads: vec![],
        stage_cin_ff: [1.0, 2.0],
    }]
    .into();
    let err = graph.apply_edits(&plan).unwrap_err();
    assert!(matches!(err, NetlistError::InvalidId(_)), "got {err}");
    let err = graph.try_apply_edits(&plan).unwrap_err();
    assert!(matches!(err, StaError::InvalidEdit(_)), "got {err}");

    // Non-finite created-stage capacitance, on a net that exists.
    let net = small.net_ids().next().unwrap();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net,
        loads: vec![],
        stage_cin_ff: [f64::NAN, 2.0],
    }]
    .into();
    let err = graph.apply_edits(&plan).unwrap_err();
    assert!(matches!(err, NetlistError::UnsupportedEdit(_)), "got {err}");

    assert_eq!(graph.circuit().gate_count(), n_gates, "nothing applied");
    assert_eq!(graph.critical_delay_ps().to_bits(), d0);
    graph.verify_state().expect("audit after rejected plans");
}

#[test]
fn sizing_extend_dense_boundary() {
    let lib = Library::cmos025();
    let chain2 = builders::inverter_chain(2);
    let chain4 = builders::inverter_chain(4);
    let mut sizing = Sizing::minimum(&chain2, &lib); // len 2

    // Gapped id set: index 3 cannot extend len()==2.
    let g3 = chain4.gate_ids().nth(3).unwrap();
    let err = sizing.try_extend_dense(vec![(g3, 1.0)]).unwrap_err();
    assert!(
        matches!(
            err,
            StaError::NonDenseSizing {
                gate: 3,
                expected: 2
            }
        ),
        "got {err}"
    );
    // Dense id, garbage capacitance.
    let g2 = chain4.gate_ids().nth(2).unwrap();
    let err = sizing.try_extend_dense(vec![(g2, f64::NAN)]).unwrap_err();
    assert!(
        matches!(err, StaError::InvalidDrive { gate: 2, .. }),
        "got {err}"
    );
    // Rejections are atomic: nothing was pushed.
    assert_eq!(sizing.len(), 2);

    // A dense batch listed out of order still lands correctly.
    sizing.try_extend_dense(vec![(g3, 4.0), (g2, 3.0)]).unwrap();
    assert_eq!(sizing.len(), 4);
    assert_eq!(sizing.cin_ff(g2), 3.0);
    assert_eq!(sizing.cin_ff(g3), 4.0);
}

#[test]
fn verify_state_passes_on_live_graphs() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);

    // Fresh, mutated, structurally edited and multi-corner graphs all
    // pass the deep audit (it is a health check, not a fault detector —
    // a healthy engine must never trip it).
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    graph.verify_state().expect("fresh graph");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    graph.resize_gates(gates.iter().map(|&g| (g, 2.0 * lib.min_drive_ff())));
    let _ = graph.worst_slack_overall_ps();
    graph.verify_state().expect("after resizes");

    let mut rng = SplitMix64::new(0xAD17_0880);
    if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
        graph.apply_edits(&plan).unwrap();
        let _ = graph.critical_delay_ps();
        graph.verify_state().expect("after surgery");
    }

    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    let mut mc = TimingGraph::with_corners(
        &circuit,
        &lib,
        &sizing,
        &pops::sta::analysis::AnalyzeOptions::default(),
        &corners,
    )
    .unwrap();
    mc.set_constraint(0.95 * t0);
    let _ = mc.worst_slack_overall_ps();
    mc.verify_state().expect("multi-corner graph");
}
