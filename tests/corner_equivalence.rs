//! Fused multi-corner ≡ independent single-corner: one graph carrying
//! slow/typical/fast per-net corner arrays through a single dirty-cone
//! flush must be **bit-identical**, corner by corner, to N separate
//! single-corner graphs each built on that corner's library — under any
//! interleaving of resize / surgery / constraint / Vt-class bursts. The
//! fused pass must also do strictly less gate-evaluation work than the N
//! independent passes combined: each union-cone gate is evaluated once
//! *covering every corner*, not once per corner.
//!
//! The Vt pass's probe history — demote, decide, revert — is checked
//! against a graph without that history: a fresh three-corner graph
//! built on the same circuit, sizing and Vt classes. Every decision
//! `meets_constraint` makes there, and at constraints on the edges of
//! its rounding band, must equal the sign of the exact design-worst
//! slack.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{suite, VtClass};
use pops::prelude::*;
use pops::sta::analysis::{AnalyzeOptions, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

/// The slow/typical/fast set every test here runs.
fn corners() -> CornerSet {
    CornerSet::slow_typical_fast(Process::cmos025())
}

/// Per-corner view of `fused` is bit-identical to the matching
/// single-corner `twins[c]` on every queryable value, and the fused
/// worst-over-corners slack folds exactly the twins' worsts.
fn assert_corners_bit_equal(fused: &TimingGraph, twins: &[TimingGraph], label: &str) {
    let circuit = fused.circuit();
    assert_eq!(fused.n_corners(), twins.len(), "{label}: corner count");
    for (c, twin) in twins.iter().enumerate() {
        assert_eq!(
            fused.critical_delay_ps_corner(c).to_bits(),
            twin.critical_delay_ps().to_bits(),
            "{label}: corner {c} critical delay diverged"
        );
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    fused.arrival_ps_corner(net, dir, c).to_bits(),
                    twin.arrival_ps(net, dir).to_bits(),
                    "{label}: corner {c} arrival of {net} {dir:?}"
                );
                assert_eq!(
                    fused.slope_ps_corner(net, dir, c).to_bits(),
                    twin.slope_ps(net, dir).to_bits(),
                    "{label}: corner {c} slope of {net} {dir:?}"
                );
                assert_eq!(
                    fused.required_ps_corner(net, dir, c).to_bits(),
                    twin.required_ps(net, dir).to_bits(),
                    "{label}: corner {c} required of {net} {dir:?}"
                );
                assert_eq!(
                    fused.slack_ps_corner(net, dir, c).to_bits(),
                    twin.slack_ps(net, dir).to_bits(),
                    "{label}: corner {c} slack of {net} {dir:?}"
                );
            }
            // Loads are corner-invariant: one slab serves every corner.
            assert_eq!(
                fused.net_load_ff(net).to_bits(),
                twin.net_load_ff(net).to_bits(),
                "{label}: corner {c} load of {net}"
            );
        }
        for g in circuit.gate_ids() {
            assert_eq!(
                fused.gate_delay_worst_ps_corner(g, c).to_bits(),
                twin.gate_delay_worst_ps(g).to_bits(),
                "{label}: corner {c} worst delay of {g}"
            );
        }
        assert_eq!(
            fused.worst_slack_overall_ps_corner(c).map(f64::to_bits),
            twin.worst_slack_overall_ps().map(f64::to_bits),
            "{label}: corner {c} design-worst slack diverged"
        );
    }
    // The plain queries are the primary-corner (corner 0) view …
    assert_eq!(
        fused.critical_delay_ps().to_bits(),
        twins[0].critical_delay_ps().to_bits(),
        "{label}: plain critical delay is not the corner-0 view"
    );
    assert_eq!(
        fused.critical_path().gates,
        twins[0].critical_path().gates,
        "{label}: critical path diverged from corner 0"
    );
    let fused_bounds = completion_bounds(circuit, fused);
    let twin_bounds = completion_bounds(circuit, &twins[0]);
    for g in circuit.gate_ids() {
        assert_eq!(
            fused_bounds[g.index()].to_bits(),
            twin_bounds[g.index()].to_bits(),
            "{label}: completion bound of {g} diverged from corner 0"
        );
    }
    let k = 4.min(circuit.primary_outputs().len().max(1));
    let fused_paths = k_most_critical_paths(circuit, fused, k);
    let twin_paths = k_most_critical_paths(circuit, &twins[0], k);
    assert_eq!(fused_paths.len(), twin_paths.len(), "{label}: k-path count");
    for (i, (a, b)) in fused_paths.iter().zip(&twin_paths).enumerate() {
        assert_eq!(a.gates, b.gates, "{label}: k-path {i} diverged");
    }
    // … and the overall worst folds every corner's worst.
    let folded = twins
        .iter()
        .filter_map(|t| t.worst_slack_overall_ps())
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        fused.worst_slack_overall_ps().map(f64::to_bits),
        (folded != f64::INFINITY).then_some(folded.to_bits()),
        "{label}: worst-over-corners fold diverged"
    );
}

/// A buffer-insertion plan on a random fanout-heavy driven net of the
/// current circuit (identical across twins — they evolve in lockstep).
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

/// Drive the fused graph and its per-corner twins through `steps`
/// random mutation bursts.
fn random_corner_twin_sequence(circuit: Circuit, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let set = corners();
    let corner_libs: Vec<Library> = set.iter().map(|p| Library::new(p.clone())).collect();
    let sizing = Sizing::minimum(&circuit, &lib);
    let options = AnalyzeOptions::default();
    let mut fused = TimingGraph::with_corners(&circuit, &lib, &sizing, &options, &set).unwrap();
    let mut twins: Vec<TimingGraph> = corner_libs
        .iter()
        .map(|l| TimingGraph::with_options(&circuit, l, &sizing, &options).unwrap())
        .collect();

    let t0 = fused.critical_delay_ps();
    fused.set_constraint(0.9 * t0);
    for g in &mut twins {
        g.set_constraint(0.9 * t0);
    }

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let gates: Vec<GateId> = fused.circuit().gate_ids().collect();
        match rng.below(8) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                fused.resize_gates(batch.clone());
                for g in &mut twins {
                    g.resize_gates(batch.clone());
                }
            }
            1 => {
                // Structural surgery: re-levels, re-ranks and re-slots
                // the widened slabs under pending seeds in every twin.
                if let Some(plan) = random_buffer_plan(&fused, &lib, &mut rng) {
                    fused.apply_edits(&plan).expect("valid edit");
                    for g in &mut twins {
                        g.apply_edits(&plan).expect("valid edit");
                    }
                }
            }
            3 => {
                let tc = t0 * (0.7 + 0.6 * rng.next_f64());
                fused.set_constraint(tc);
                for g in &mut twins {
                    g.set_constraint(tc);
                }
            }
            4 => {
                // Vt-class swap: per-(gate,corner) parameter rebuild and
                // a re-timed cone in the fused graph *and* every twin.
                let g = *rng.pick(&gates);
                let class = *rng.pick(&[VtClass::Lvt, VtClass::Svt, VtClass::Hvt]);
                fused.set_vt_class(g, class);
                for t in &mut twins {
                    t.set_vt_class(g, class);
                }
            }
            _ => {
                let g = *rng.pick(&gates);
                let cin = cref * (1.0 + 25.0 * rng.next_f64());
                fused.resize_gate(g, cin);
                for t in &mut twins {
                    t.resize_gate(g, cin);
                }
            }
        }
        if step % check_every == check_every - 1 {
            assert_corners_bit_equal(&fused, &twins, &format!("step {step}"));
        }
    }
    assert_corners_bit_equal(&fused, &twins, "final");
}

#[test]
fn fpd_corners_match_single_corner() {
    let c = suite::circuit("fpd").unwrap();
    random_corner_twin_sequence(c, 0xC04E_F00D, 24, 4);
}

#[test]
fn c432_corners_match_single_corner() {
    let c = suite::circuit("c432").unwrap();
    random_corner_twin_sequence(c, 0xC04E_0432, 24, 4);
}

#[test]
fn c880_corners_match_single_corner() {
    let c = suite::circuit("c880").unwrap();
    random_corner_twin_sequence(c, 0xC04E_0880, 16, 4);
}

#[test]
fn c1908_corners_match_single_corner() {
    let c = suite::circuit("c1908").unwrap();
    random_corner_twin_sequence(c, 0xC04E_1908, 16, 4);
}

#[test]
fn c6288_corners_match_single_corner() {
    let c = suite::circuit("c6288").unwrap();
    random_corner_twin_sequence(c, 0xC04E_6288, 6, 3);
}

#[test]
fn c7552_corners_match_single_corner() {
    let c = suite::circuit("c7552").unwrap();
    random_corner_twin_sequence(c, 0xC04E_7552, 6, 3);
}

#[test]
fn synth10k_corners_match_single_corner() {
    let c = suite::scaling_circuit("synth10k").unwrap();
    random_corner_twin_sequence(c, 0xC04E_E010, 4, 2);
}

/// Every corner's arrivals, slopes, required times and critical delay,
/// and the design-worst slack, of `probed` are bit-identical to
/// `fresh`'s.
fn assert_matches_fresh_corners(probed: &TimingGraph, fresh: &TimingGraph, label: &str) {
    let circuit = probed.circuit();
    for c in 0..probed.n_corners() {
        assert_eq!(
            probed.critical_delay_ps_corner(c).to_bits(),
            fresh.critical_delay_ps_corner(c).to_bits(),
            "{label}: corner {c} critical delay diverged"
        );
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    probed.arrival_ps_corner(net, dir, c).to_bits(),
                    fresh.arrival_ps_corner(net, dir, c).to_bits(),
                    "{label}: corner {c} arrival of {net} {dir:?}"
                );
                assert_eq!(
                    probed.slope_ps_corner(net, dir, c).to_bits(),
                    fresh.slope_ps_corner(net, dir, c).to_bits(),
                    "{label}: corner {c} slope of {net} {dir:?}"
                );
                assert_eq!(
                    probed.required_ps_corner(net, dir, c).to_bits(),
                    fresh.required_ps_corner(net, dir, c).to_bits(),
                    "{label}: corner {c} required of {net} {dir:?}"
                );
            }
        }
    }
    assert_eq!(
        probed.worst_slack_overall_ps().map(f64::to_bits),
        fresh.worst_slack_overall_ps().map(f64::to_bits),
        "{label}: design-worst slack diverged"
    );
}

/// The latest primary-output arrival over every corner.
fn latest_output_arrival(graph: &TimingGraph) -> f64 {
    (0..graph.n_corners())
        .map(|c| graph.critical_delay_ps_corner(c))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// `graph.meets_constraint()`, asserted equal to the sign of the exact
/// design-worst slack read on a copy (so `graph` keeps the backward
/// marks a probe loop defers).
fn decide(graph: &TimingGraph, label: &str) -> Option<bool> {
    let meets = graph.meets_constraint();
    let exact = graph.clone().worst_slack_overall_ps().map(|s| s >= 0.0);
    assert_eq!(
        meets, exact,
        "{label}: meets_constraint against the worst-slack sign"
    );
    meets
}

/// Move the constraint to the latest output arrival `A`, one ulp below
/// and above it, and `+inf`, asserting `meets_constraint` against the
/// worst-slack sign at each: `A` and the ulp above it fall in the
/// rounding band (one exact backward read each), the ulp below fails on
/// the forward state alone, and `+inf` answers `None` without a flush.
fn constraint_edge_cases(graph: &mut TimingGraph, label: &str) {
    let latest = latest_output_arrival(graph);
    let below = f64::from_bits(latest.to_bits() - 1);
    let above = f64::from_bits(latest.to_bits() + 1);
    // Inside the band the answer is whatever the exact read says.
    for (tc, fast_answer) in [
        (latest, None),
        (below, Some(Some(false))),
        (above, None),
        (f64::INFINITY, Some(None)),
    ] {
        graph.set_constraint(tc);
        let flushes = graph.stats().backward_flushes;
        let meets = graph.meets_constraint();
        assert_eq!(
            graph.stats().backward_flushes - flushes,
            usize::from(fast_answer.is_none()),
            "{label}: tc {tc} reads the backward state only inside the band"
        );
        if let Some(want) = fast_answer {
            assert_eq!(
                meets, want,
                "{label}: tc {tc} against the latest arrival {latest}"
            );
        }
        assert_eq!(
            meets,
            graph.worst_slack_overall_ps().map(|s| s >= 0.0),
            "{label}: tc {tc}: meets_constraint against the worst-slack sign"
        );
    }
}

/// The Vt pass's probes on a three-corner graph at 1.4·T0 — demote a
/// gate to HVT, decide with `meets_constraint` (checked against the
/// worst-slack sign), revert when it fails — mixed with resizes and
/// buffer edits, and checked every `check_every` steps against a fresh
/// `with_corners` graph on the same circuit, sizing and Vt classes,
/// after a copy has run the constraint's edge cases.
fn vt_probe_sequence(name: &str, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let circuit = suite::circuit(name).unwrap();
    let set = corners();
    let options = AnalyzeOptions::default();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::with_corners(&circuit, &lib, &sizing, &options, &set).unwrap();
    let tc = 1.4 * graph.critical_delay_ps();
    graph.set_constraint(tc);
    let mut classes = vec![VtClass::Svt; circuit.gate_count()];
    let (mut kept, mut reverted) = (0usize, 0usize);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    let check = |graph: &TimingGraph, classes: &[VtClass], label: &str| {
        let mut fresh =
            TimingGraph::with_corners(graph.circuit(), &lib, graph.sizing(), &options, &set)
                .unwrap();
        for (g, &class) in graph.circuit().gate_ids().zip(classes) {
            fresh.set_vt_class(g, class);
        }
        fresh.set_constraint(tc);
        assert_matches_fresh_corners(graph, &fresh, label);
    };
    for step in 0..steps {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        let label = format!("{name} step {step}");
        match rng.below(8) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(6))
                    .map(|_| (*rng.pick(&gates), cref * (1.0 + 9.0 * rng.next_f64())))
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                    // Gates created by surgery enter as SVT.
                    classes.resize(graph.circuit().gate_count(), VtClass::Svt);
                }
            }
            _ => {
                // Half the probes hit the critical path, where a
                // demotion can use up the slack and must be reverted.
                let g = if rng.chance(0.5) {
                    *rng.pick(&graph.critical_path().gates)
                } else {
                    *rng.pick(&gates)
                };
                graph.set_vt_class(g, VtClass::Hvt);
                if decide(&graph, &label) == Some(true) {
                    classes[g.index()] = VtClass::Hvt;
                    kept += 1;
                } else {
                    graph.set_vt_class(g, classes[g.index()]);
                    reverted += 1;
                }
            }
        }
        if step % check_every == check_every - 1 {
            // On a copy: the probes go on with their deferred state.
            constraint_edge_cases(&mut graph.clone(), &label);
            check(&graph, &classes, &label);
        }
    }
    check(&graph, &classes, &format!("{name} final"));
    assert!(
        kept > 0 && reverted > 0,
        "{name}: {kept} demotions kept and {reverted} reverted; the sequence needs both"
    );
    constraint_edge_cases(&mut graph, &format!("{name} edges"));
}

#[test]
fn fpd_vt_probes_match_a_fresh_graph() {
    vt_probe_sequence("fpd", 0x0B7_F00D, 48, 6);
}

#[test]
fn c432_vt_probes_match_a_fresh_graph() {
    vt_probe_sequence("c432", 0x0B7_0432, 48, 6);
}

#[test]
fn c1908_vt_probes_match_a_fresh_graph() {
    vt_probe_sequence("c1908", 0x0B7_1908, 32, 8);
}

#[test]
fn c7552_vt_probes_match_a_fresh_graph() {
    vt_probe_sequence("c7552", 0x0B7_7552, 64, 16);
}

#[test]
fn fused_flush_does_sublinear_corner_work() {
    // The point of fusing: one dirty-cone drain evaluates each gate
    // once *covering all three corners*, so its evaluation count must
    // come in strictly below the three independent single-corner
    // graphs' combined count for the same mutation burst — and in fact
    // match the count a lone single-corner graph pays for the same cone.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let set = corners();
    let corner_libs: Vec<Library> = set.iter().map(|p| Library::new(p.clone())).collect();
    let sizing = Sizing::minimum(&circuit, &lib);
    let options = AnalyzeOptions::default();
    let mut fused = TimingGraph::with_corners(&circuit, &lib, &sizing, &options, &set).unwrap();
    let mut twins: Vec<TimingGraph> = corner_libs
        .iter()
        .map(|l| TimingGraph::with_options(&circuit, l, &sizing, &options).unwrap())
        .collect();
    let t0 = fused.critical_delay_ps();
    fused.set_constraint(0.9 * t0);
    for g in &mut twins {
        g.set_constraint(0.9 * t0);
    }
    // Settle everything, then measure one shared burst.
    let _ = fused.worst_slack_overall_ps();
    for g in &mut twins {
        let _ = g.worst_slack_overall_ps();
    }

    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let batch: Vec<(GateId, f64)> = gates
        .iter()
        .step_by(97)
        .map(|&g| (g, 4.0 * lib.min_drive_ff()))
        .collect();
    let fused_before = fused.stats().gates_reevaluated;
    fused.resize_gates(batch.clone());
    let _ = fused.worst_slack_overall_ps();
    let fused_evals = fused.stats().gates_reevaluated - fused_before;

    let mut twin_evals = 0usize;
    for g in &mut twins {
        let before = g.stats().gates_reevaluated;
        g.resize_gates(batch.clone());
        let _ = g.worst_slack_overall_ps();
        twin_evals += g.stats().gates_reevaluated - before;
    }

    assert!(fused_evals > 0, "the burst must dirty a cone");
    assert!(
        fused_evals < twin_evals,
        "fused {fused_evals} evals must undercut {} independent corners' {twin_evals}",
        set.len()
    );
    // Tighter: the fused union cone can only exceed a single corner's
    // cone through corner-dependent convergence cuts, never by a
    // corner-count factor.
    assert!(
        fused_evals * 2 < twin_evals,
        "fused {fused_evals} evals should be near one corner's share of {twin_evals}"
    );
}
