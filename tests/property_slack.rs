//! Property suite for the backward timing surface (SplitMix64-seeded,
//! so failures reproduce):
//!
//! * `slack = required − arrival` holds bit-exactly at every net, on
//!   both backends, under random sizings;
//! * the design-worst slack is monotone non-increasing under pure load
//!   increases (heavier primary-output latches);
//! * `k_most_critical_paths` returns paths in non-increasing weight
//!   order with `path_weight_ps` bit-consistent across the
//!   `TimingReport` and `TimingGraph` backends.

use pops::netlist::rng::SplitMix64;
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, AnalyzeOptions, EdgeDir};
use pops::sta::kpaths::path_weight_ps;
use pops::sta::TimingGraph;

/// A random sizing between 1× and 25× minimum drive.
fn random_sizing(circuit: &Circuit, lib: &Library, rng: &mut SplitMix64) -> Sizing {
    let mut sizing = Sizing::minimum(circuit, lib);
    for g in circuit.gate_ids() {
        sizing.set(g, lib.min_drive_ff() * (1.0 + 24.0 * rng.next_f64()));
    }
    sizing
}

#[test]
fn slack_is_required_minus_arrival_everywhere() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0x51AC_0001);
    for name in ["fpd", "c432", "c880"] {
        let circuit = suite::circuit(name).unwrap();
        let sizing = random_sizing(&circuit, &lib, &mut rng);
        let report = analyze(&circuit, &lib, &sizing).unwrap();
        let tc = 0.9 * report.critical_delay_ps();
        let slacks = required_times(&circuit, &lib, &sizing, &report, tc).unwrap();
        let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
        graph.set_constraint(tc);
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                // Identity on the one-shot report...
                let want = slacks.required_ps(net, dir) - report.arrival_ps(net, dir);
                assert_eq!(
                    slacks.slack_ps(net, dir).to_bits(),
                    want.to_bits(),
                    "{name}: report slack identity at {net} {dir:?}"
                );
                // ... and on the incremental graph.
                let want = graph.required_ps(net, dir) - graph.arrival_ps(net, dir);
                assert_eq!(
                    graph.slack_ps(net, dir).to_bits(),
                    want.to_bits(),
                    "{name}: graph slack identity at {net} {dir:?}"
                );
                // Never NaN, per the documented value domains.
                assert!(!slacks.slack_ps(net, dir).is_nan(), "{name}: NaN slack");
            }
        }
    }
}

#[test]
fn worst_slack_is_monotone_under_po_load_increase() {
    // A pure load increase (heavier capturing latches) can only slow
    // arcs: arrivals rise, required times fall, so every slack — and in
    // particular the design-worst slack — is non-increasing.
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0x51AC_0002);
    for name in ["fpd", "c432"] {
        let circuit = suite::circuit(name).unwrap();
        let sizing = random_sizing(&circuit, &lib, &mut rng);
        let tc = 1.1
            * TimingGraph::new(&circuit, &lib, &sizing)
                .unwrap()
                .critical_delay_ps();
        let mut last = f64::INFINITY;
        let mut po_load = 5.0;
        for _ in 0..8 {
            // Options are fixed per graph: each latch load is a rebuild.
            let options = AnalyzeOptions {
                po_load_ff: po_load,
                input_transition_ps: 50.0,
            };
            let mut graph = TimingGraph::with_options(&circuit, &lib, &sizing, &options).unwrap();
            graph.set_constraint(tc);
            let worst = graph.worst_slack_overall_ps().unwrap();
            assert!(
                worst <= last + 1e-9,
                "{name}: worst slack rose from {last} to {worst} at po_load {po_load}"
            );
            last = worst;
            po_load += 3.0 + 20.0 * rng.next_f64();
        }
    }
}

#[test]
fn kpaths_weights_are_non_increasing_and_backend_consistent() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0x51AC_0003);
    for name in ["fpd", "c432", "c880"] {
        let circuit = suite::circuit(name).unwrap();
        let sizing = random_sizing(&circuit, &lib, &mut rng);
        let report = analyze(&circuit, &lib, &sizing).unwrap();
        let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
        graph.set_constraint(0.95 * graph.critical_delay_ps());

        let via_report = k_most_critical_paths(&circuit, &report, 12);
        let via_graph = k_most_critical_paths(&circuit, &graph, 12);
        assert_eq!(via_report.len(), via_graph.len(), "{name}: path counts");
        assert!(!via_report.is_empty(), "{name}: no paths found");

        let mut last = f64::INFINITY;
        for (a, b) in via_report.iter().zip(&via_graph) {
            assert_eq!(a.gates, b.gates, "{name}: backends rank differently");
            // Weights are bit-consistent across backends...
            let wa = path_weight_ps(&report, a);
            let wb = path_weight_ps(&graph, b);
            assert_eq!(wa.to_bits(), wb.to_bits(), "{name}: weight diverged");
            // ... and non-increasing down the ranking.
            assert!(
                wa <= last + 1e-9,
                "{name}: weight {wa} follows lighter {last}"
            );
            last = wa;
        }
    }
}

#[test]
fn slack_identity_survives_a_random_resize_walk() {
    // The identity is cheap to check incrementally, so walk a random
    // resize sequence and spot-check it straight off the graph.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c432").unwrap();
    let mut rng = SplitMix64::new(0x51AC_0004);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let nets: Vec<NetId> = circuit.net_ids().collect();
    let cref = lib.min_drive_ff();
    for _ in 0..60 {
        let g = *rng.pick(&gates);
        graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
        for _ in 0..16 {
            let net = *rng.pick(&nets);
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                let want = graph.required_ps(net, dir) - graph.arrival_ps(net, dir);
                assert_eq!(graph.slack_ps(net, dir).to_bits(), want.to_bits());
                assert!(!graph.slack_ps(net, dir).is_nan());
            }
        }
    }
}

#[test]
fn analyze_with_agrees_with_graph_under_random_options() {
    // Forward+backward state under random options: the fresh analysis
    // and a graph built under the same options must agree bit-for-bit
    // on weights so path ranking can never depend on the backend.
    let lib = Library::cmos025();
    let circuit = suite::circuit("fpd").unwrap();
    let mut rng = SplitMix64::new(0x51AC_0005);
    let sizing = random_sizing(&circuit, &lib, &mut rng);
    let tc = 1.05
        * TimingGraph::new(&circuit, &lib, &sizing)
            .unwrap()
            .critical_delay_ps();
    for _ in 0..6 {
        let options = AnalyzeOptions {
            po_load_ff: 2.0 + 60.0 * rng.next_f64(),
            input_transition_ps: 10.0 + 150.0 * rng.next_f64(),
        };
        let mut graph = TimingGraph::with_options(&circuit, &lib, &sizing, &options).unwrap();
        graph.set_constraint(tc);
        let fresh = analyze_with(&circuit, &lib, &sizing, &options).unwrap();
        for g in circuit.gate_ids() {
            assert_eq!(
                graph.gate_delay_worst_ps(g).to_bits(),
                fresh.gate_delay_worst_ps(g).to_bits()
            );
        }
        let a = k_most_critical_paths(&circuit, &graph, 5);
        let b = k_most_critical_paths(&circuit, &fresh, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.gates, y.gates);
        }
    }
}
