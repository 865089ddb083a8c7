//! Randomized surgery equivalence: the first suite that mutates graph
//! *topology* under incremental timing state. After **every** step of a
//! random mix of resizes, Inv-pair buffer insertions and De Morgan
//! rewrites, the whole queryable state of the
//! [`TimingGraph`] — arrivals, slopes, loads, gate delays, the critical
//! path, required times, slacks, the design-worst slack and the k-paths
//! completion bounds — must be bit-identical to a from-scratch pipeline
//! (`analyze_with` + `required_times` + `completion_bounds`) over the
//! graph's own edited circuit.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, AnalyzeOptions, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

fn assert_equivalent(graph: &TimingGraph, lib: &Library, step: usize) {
    let circuit = graph.circuit();
    let name = circuit.name();
    circuit.validate().unwrap_or_else(|e| {
        panic!("{name} step {step}: surgery broke the netlist: {e}");
    });
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options())
        .expect("edited circuits stay analyzable");

    // Forward state.
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

    // Backward state under the maintained constraint.
    let tc = graph.constraint_ps().expect("constraint set");
    let slacks =
        required_times(circuit, lib, graph.sizing(), &fresh, tc).expect("circuits stay valid");
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
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "{name} step {step}: design-worst slack diverged"
    );
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

/// One random structural edit. Returns `None` when the dice produced an
/// inapplicable move (caller falls back to a resize).
fn random_edit(circuit: &Circuit, cref: f64, rng: &mut SplitMix64) -> Option<EditOp> {
    match rng.below(2) {
        0 => {
            // Buffer a random driven net, moving a random nonempty
            // subset of its load pins.
            let nets: Vec<NetId> = circuit
                .net_ids()
                .filter(|&n| circuit.driver_gate(n).is_some() && circuit.net(n).fanout() >= 1)
                .collect();
            let net = *rng.pick(&nets);
            let all = circuit.net(net).loads().to_vec();
            let mut loads: Vec<(GateId, usize)> =
                all.iter().copied().filter(|_| rng.chance(0.5)).collect();
            if loads.is_empty() {
                loads.push(all[rng.below(all.len())]);
            }
            Some(EditOp::InsertBuffer {
                net,
                loads,
                stage_cin_ff: [
                    cref * (1.0 + 9.0 * rng.next_f64()),
                    cref * (1.0 + 19.0 * rng.next_f64()),
                ],
            })
        }
        _ => {
            // De Morgan a random NAND/NOR.
            let duals: Vec<GateId> = circuit
                .gate_ids()
                .filter(|&g| circuit.gate(g).kind().demorgan_dual().is_some())
                .collect();
            if duals.is_empty() {
                return None;
            }
            Some(EditOp::DeMorgan {
                gate: *rng.pick(&duals),
                inv_cin_ff: cref * (1.0 + 4.0 * rng.next_f64()),
            })
        }
    }
}

fn random_surgery_sequence(name: &str, seed: u64, steps: usize) {
    let lib = Library::cmos025();
    let base = suite::circuit(name).expect("suite circuit exists");
    let mut rng = SplitMix64::new(seed);
    let mut graph = TimingGraph::new(&base, &lib, &Sizing::minimum(&base, &lib))
        .expect("suite circuits are acyclic");
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let cref = lib.min_drive_ff();

    for step in 0..steps {
        // 3-in-8 structural edit, otherwise the familiar resize moves —
        // the flow's real mix once write-back engages.
        let did_edit = if rng.below(8) < 3 {
            match random_edit(graph.circuit(), cref, &mut rng) {
                Some(op) => {
                    let plan: EditPlan = vec![op].into();
                    let applied = graph.apply_edits(&plan).expect("random edits are valid");
                    assert_eq!(applied.len(), 1, "{name} step {step}");
                    true
                }
                None => false,
            }
        } else {
            false
        };
        if !did_edit {
            let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
            match rng.below(3) {
                0 => {
                    let batch: Vec<(GateId, f64)> = (0..2 + rng.below(5))
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
        }
        assert_equivalent(&graph, &lib, step);
    }

    // Some surgery must actually have happened, and the k-paths ranking
    // through the cached bounds agrees with a fresh report at the end.
    assert!(
        graph.stats().structural_edits > 0,
        "{name}: the sequence never edited the structure"
    );
    assert!(
        graph.circuit().gate_count() > base.gate_count(),
        "{name}: edits must have grown the netlist"
    );
    let circuit = graph.circuit();
    let fresh = analyze_with(circuit, &lib, graph.sizing(), graph.options()).unwrap();
    let via_graph = k_most_critical_paths(circuit, &graph, 8);
    let via_fresh = k_most_critical_paths(circuit, &fresh, 8);
    assert_eq!(via_graph.len(), via_fresh.len());
    for (a, b) in via_graph.iter().zip(&via_fresh) {
        assert_eq!(a.gates, b.gates, "{name}: k-paths diverged after surgery");
    }
}

#[test]
fn fpd_random_surgery_matches_rebuild() {
    random_surgery_sequence("fpd", 0x5u64.wrapping_mul(0x9E37_79B9), 30);
}

#[test]
fn c432_random_surgery_matches_rebuild() {
    random_surgery_sequence("c432", 0x5u64.wrapping_add(0x0432), 30);
}

#[test]
fn c880_random_surgery_matches_rebuild() {
    random_surgery_sequence("c880", 0x5u64.wrapping_add(0x0880), 30);
}

#[test]
fn c1908_random_surgery_matches_rebuild() {
    random_surgery_sequence("c1908", 0x5u64.wrapping_add(0x1908), 30);
}

#[test]
fn c6288_random_surgery_matches_rebuild() {
    // The heavyweights: fewer steps keep the per-step fresh reference
    // passes affordable in debug builds.
    random_surgery_sequence("c6288", 0x5u64.wrapping_add(0x6288), 12);
}

#[test]
fn c7552_random_surgery_matches_rebuild() {
    random_surgery_sequence("c7552", 0x5u64.wrapping_add(0x7552), 12);
}

#[test]
fn surgery_interleaved_with_option_and_constraint_changes_matches() {
    // Options are fixed per graph, so an option change is a rebuild:
    // each epoch times the circuit, sizing and constraint the previous
    // epoch's graph left behind under freshly drawn options, then runs
    // surgery, resizes and a constraint move on the rebuilt graph.
    let lib = Library::cmos025();
    let mut circuit = suite::circuit("fpd").unwrap();
    let mut sizing = Sizing::minimum(&circuit, &lib);
    let mut rng = SplitMix64::new(0x0B97_1CAF_5E11);
    let t0 = TimingGraph::new(&circuit, &lib, &sizing)
        .unwrap()
        .critical_delay_ps();
    let mut tc = t0;
    let cref = lib.min_drive_ff();
    let mut structural_edits = 0;
    for epoch in 0..4 {
        let options = AnalyzeOptions {
            po_load_ff: 5.0 + 40.0 * rng.next_f64(),
            input_transition_ps: 20.0 + 100.0 * rng.next_f64(),
        };
        let mut graph = TimingGraph::with_options(&circuit, &lib, &sizing, &options).unwrap();
        graph.set_constraint(tc);
        for step in 6 * epoch..6 * epoch + 6 {
            match step % 6 {
                0 | 3 => {
                    if let Some(op) = random_edit(graph.circuit(), cref, &mut rng) {
                        graph.apply_edits(&vec![op].into()).unwrap();
                    }
                }
                5 => {
                    graph.set_constraint(t0 * (0.7 + 0.6 * rng.next_f64()));
                }
                _ => {
                    let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
                    let g = *rng.pick(&gates);
                    graph.resize_gate(g, cref * (1.0 + 20.0 * rng.next_f64()));
                }
            }
            assert_equivalent(&graph, &lib, step);
        }
        structural_edits += graph.stats().structural_edits;
        tc = graph.constraint_ps().expect("constraint set");
        sizing = graph.sizing().clone();
        circuit = graph.circuit().clone();
    }
    assert!(structural_edits > 0);
}

#[test]
fn an_edit_costs_one_full_pass_each_way() {
    // A structural edit resets the timing state: applying it evaluates
    // no arc, the next forward query re-evaluates every gate once and
    // the next backward query re-derives every net once.
    let lib = Library::cmos025();
    let base = suite::circuit("c880").unwrap();
    let mut graph = TimingGraph::new(&base, &lib, &Sizing::minimum(&base, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let _ = graph.worst_slack_overall_ps();
    // Buffer a *deep* net (driver late in the topological order), whose
    // downstream cone is a fraction of the circuit.
    let order = base.topo_order().unwrap();
    let net = order
        .iter()
        .rev()
        .map(|&g| base.gate(g).output())
        .find(|&n| base.net(n).fanout() >= 2)
        .expect("c880 has fanout-heavy nets");
    let loads = base.net(net).loads()[1..].to_vec();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net,
        loads,
        stage_cin_ff: [lib.min_drive_ff(), 4.0 * lib.min_drive_ff()],
    }]
    .into();
    let before = graph.stats();
    graph.apply_edits(&plan).unwrap();
    let edited = graph.stats();
    assert_eq!(edited.gates_reevaluated, before.gates_reevaluated);
    assert_eq!(edited.required_reevaluated, before.required_reevaluated);
    assert_eq!(edited.forward_flushes, before.forward_flushes);
    assert_eq!(edited.backward_flushes, before.backward_flushes);

    let _ = graph.critical_delay_ps();
    let forward = graph.stats();
    assert_eq!(forward.forward_flushes, edited.forward_flushes + 1);
    assert_eq!(
        forward.gates_reevaluated - edited.gates_reevaluated,
        graph.circuit().gate_count()
    );
    assert_eq!(forward.required_reevaluated, edited.required_reevaluated);

    let _ = graph.worst_slack_overall_ps();
    let backward = graph.stats();
    assert_eq!(backward.backward_flushes, forward.backward_flushes + 1);
    assert_eq!(
        backward.required_reevaluated - forward.required_reevaluated,
        graph.circuit().net_count()
    );
    assert_eq!(backward.gates_reevaluated, forward.gates_reevaluated);

    // Repeat reads on the settled state are free.
    let _ = graph.critical_delay_ps();
    let _ = graph.worst_slack_overall_ps();
    assert_eq!(graph.stats(), backward);
}
