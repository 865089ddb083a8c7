//! Randomized equivalence: the incremental [`TimingGraph`] must match a
//! from-scratch `analyze()` after **every** step of a random resize
//! sequence — arrivals, slopes, loads, per-gate worst delays, critical
//! delay and the reconstructed critical path.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, EdgeDir};
use pops::sta::TimingGraph;

const STEPS_PER_CIRCUIT: usize = 50;

fn assert_equivalent(graph: &TimingGraph, circuit: &Circuit, lib: &Library, step: usize) {
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options())
        .expect("suite circuits are valid");
    let name = circuit.name();
    assert!(
        (graph.critical_delay_ps() - fresh.critical_delay_ps()).abs() <= 1e-9,
        "{name} step {step}: critical {} vs {}",
        graph.critical_delay_ps(),
        fresh.critical_delay_ps()
    );
    for net in circuit.net_ids() {
        assert!(
            (graph.net_load_ff(net) - fresh.net_load_ff(net)).abs() <= 1e-9,
            "{name} step {step}: load of {net}"
        );
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            let (a, b) = (graph.arrival_ps(net, dir), fresh.arrival_ps(net, dir));
            assert!(
                a == b || (a - b).abs() <= 1e-9,
                "{name} step {step}: arrival of {net} {dir:?}: {a} vs {b}"
            );
            let (a, b) = (graph.slope_ps(net, dir), fresh.slope_ps(net, dir));
            assert!(
                a == b || (a - b).abs() <= 1e-9,
                "{name} step {step}: slope of {net} {dir:?}: {a} vs {b}"
            );
        }
    }
    for g in circuit.gate_ids() {
        assert!(
            (graph.gate_delay_worst_ps(g) - fresh.gate_delay_worst_ps(g)).abs() <= 1e-9,
            "{name} step {step}: worst delay of {g}"
        );
    }
    // Critical-path reconstruction must agree gate-for-gate.
    assert_eq!(
        graph.critical_path().gates,
        fresh.critical_path().gates,
        "{name} step {step}: critical path diverged"
    );
}

fn random_resize_sequence(circuit: &Circuit, seed: u64) {
    let lib = Library::cmos025();
    let name = circuit.name();
    let mut rng = SplitMix64::new(seed);
    let mut graph = TimingGraph::new(circuit, &lib, &Sizing::minimum(circuit, &lib))
        .expect("test circuits are acyclic");
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();

    for step in 0..STEPS_PER_CIRCUIT {
        // Mix single resizes with occasional small batches (the flow's
        // write-back pattern) and occasional shrink-back-to-minimum.
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
        assert_equivalent(&graph, circuit, &lib, step);
    }

    // After the whole sequence the K-paths ranking through the
    // incremental view agrees with the one through a fresh report.
    let fresh = analyze_with(circuit, &lib, graph.sizing(), graph.options()).unwrap();
    let via_graph = k_most_critical_paths(circuit, &graph, 8);
    let via_fresh = k_most_critical_paths(circuit, &fresh, 8);
    assert_eq!(via_graph.len(), via_fresh.len());
    for (a, b) in via_graph.iter().zip(&via_fresh) {
        assert_eq!(a.gates, b.gates, "{name}: k-paths diverged");
    }
}

#[test]
fn fpd_random_resizes_match_full_analysis() {
    random_resize_sequence(&suite::circuit("fpd").unwrap(), 0xF00D);
}

#[test]
fn c432_random_resizes_match_full_analysis() {
    random_resize_sequence(&suite::circuit("c432").unwrap(), 0x432);
}

#[test]
fn c880_random_resizes_match_full_analysis() {
    random_resize_sequence(&suite::circuit("c880").unwrap(), 0x880);
}

#[test]
fn tied_arrivals_trace_back_through_the_first_pin() {
    // Two identical inverters on one primary input drive the two pins
    // of a NAND2, the only output: at equal sizes their arrivals into
    // the NAND tie bit for bit, and the traceback must take the first
    // strict maximum in fanin order, the pin-0 inverter.
    let mut circuit = Circuit::new("tied");
    let a = circuit.add_input("a");
    let n0 = circuit.add_gate(CellKind::Inv, &[a], "n0").unwrap();
    let n1 = circuit.add_gate(CellKind::Inv, &[a], "n1").unwrap();
    let y = circuit.add_gate(CellKind::Nand2, &[n0, n1], "y").unwrap();
    circuit.mark_output(y);
    let pin0 = circuit.driver_gate(n0).unwrap();

    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let fresh = analyze_with(&circuit, &lib, &sizing, graph.options()).unwrap();
    for dir in [EdgeDir::Rising, EdgeDir::Falling] {
        assert_eq!(
            graph.arrival_ps(n0, dir).to_bits(),
            graph.arrival_ps(n1, dir).to_bits()
        );
    }
    assert_eq!(graph.critical_path().gates[0], pin0);
    assert_eq!(fresh.critical_path().gates[0], pin0);

    // Shrink-to-minimum steps of the random sequence can restore the tie.
    random_resize_sequence(&circuit, 0x71ED);
}

#[test]
fn incremental_work_is_a_fraction_of_full_reanalysis() {
    // The point of the engine: over a long random sequence the average
    // re-evaluated cone must be well below the circuit size.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let mut rng = SplitMix64::new(0x57A7);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let cref = lib.min_drive_ff();
    let steps = 200;
    for _ in 0..steps {
        let g = *rng.pick(&gates);
        graph.resize_gate(g, cref * (1.0 + 10.0 * rng.next_f64()));
        // Force the (lazy) per-step flush: this test measures the
        // per-mutation cone economics, not the merged-flush dedup
        // (which `tests/forward_lazy_equivalence.rs` covers).
        let _ = graph.critical_delay_ps();
    }
    let full_equivalent = steps * circuit.gate_count();
    let actual = graph.stats().gates_reevaluated;
    assert!(
        actual * 2 < full_equivalent,
        "incremental {actual} vs full-reanalysis {full_equivalent}"
    );
}
