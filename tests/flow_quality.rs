//! Flow-quality pins: `optimize_circuit` on six suite circuits, with T0
//! the critical delay of the minimum-size `analyze` pass.
//!
//! - Tight case, tc = 0.6·T0 with default [`FlowOptions`]: the final
//!   delay over tc and the total input capacitance to 1e-9 relative
//!   (the convention of `kpaths_golden.rs`), and the round, path and
//!   edit counts and the returned gate count exactly.
//! - Vt case, tc = 1.4·T0 with the high-Vt pass on: the high-Vt gate
//!   count exactly and the leakage to 1e-9 relative.
//!
//! These values record today's behaviour, not a target: the flow misses
//! tc on all six circuits in the tight case. They exist so that a change
//! meant to be quality-neutral (a speed-up, a refactor, a deletion)
//! cannot move a result unnoticed. Regenerate them only together with
//! the change that moves them, and say there why they moved.

use pops::flow::{optimize_circuit, FlowOptions};
use pops::prelude::*;

const CIRCUITS: [&str; 6] = ["fpd", "c432", "c880", "c1908", "c6288", "c7552"];

/// Final delay / tc and total C_IN (fF) at tc = 0.6·T0, per circuit.
const TIGHT_QUALITY: [(f64, f64); 6] = [
    (1.2446370135684512, 1152.248045438138),
    (1.1093172447534323, 1357.3032693634984),
    (1.029488151160465, 1214.0353798858584),
    (1.0358858745194794, 2501.607203355028),
    (1.0801494182919193, 6772.799942000717),
    (1.035092145984179, 9562.51906833153),
];

/// Rounds, paths optimized, edits applied, buffers inserted, gates
/// restructured and gate count at tc = 0.6·T0, per circuit.
const TIGHT_COUNTS: [[usize; 6]; 6] = [
    [8, 64, 3, 2, 1, 127],
    [8, 64, 3, 2, 1, 168],
    [8, 64, 0, 0, 0, 383],
    [8, 63, 0, 0, 0, 880],
    [8, 64, 0, 0, 0, 2416],
    [8, 64, 0, 0, 0, 3512],
];

/// High-Vt gates, gate count and leakage (nW) at tc = 1.4·T0 with
/// `vt_assignment` on, per circuit.
const VT: [(usize, usize, f64); 6] = [
    (110, 120, 15.899999999999984),
    (138, 160, 25.619999999999997),
    (356, 383, 48.240000000000336),
    (829, 880, 105.21000000000161),
    (2300, 2416, 276.60000000000406),
    (3471, 3512, 336.9899999999872),
];

fn circuit_and_t0(name: &str, lib: &Library) -> (Circuit, f64) {
    let circuit = pops::netlist::suite::circuit(name).expect("suite circuit");
    let sizing = Sizing::minimum(&circuit, lib);
    let t0 = analyze(&circuit, lib, &sizing)
        .expect("suite circuits are acyclic")
        .critical_delay_ps();
    (circuit, t0)
}

fn assert_rel(name: &str, what: &str, got: f64, want: f64) {
    assert!(
        ((got - want) / want).abs() < 1e-9,
        "{name}: {what} {got:?}, pinned {want:?}"
    );
}

#[test]
fn tight_constraint_results_stay_pinned() {
    let lib = Library::cmos025();
    for (i, name) in CIRCUITS.into_iter().enumerate() {
        let (ratio, cin) = TIGHT_QUALITY[i];
        let (circuit, t0) = circuit_and_t0(name, &lib);
        let tc = 0.6 * t0;
        let r = optimize_circuit(&circuit, &lib, tc, &FlowOptions::default()).expect("flow runs");
        assert_rel(name, "final delay / tc", r.final_delay_ps / tc, ratio);
        assert_rel(name, "total C_IN (fF)", r.total_cin_ff, cin);
        let got = [
            r.rounds,
            r.paths_optimized,
            r.edits_applied,
            r.buffers_inserted,
            r.gates_restructured,
            r.circuit.gate_count(),
        ];
        assert_eq!(
            got, TIGHT_COUNTS[i],
            "{name}: [rounds, paths, edits, buffers, De Morgan, gates]"
        );
    }
}

#[test]
fn vt_pass_results_stay_pinned() {
    let lib = Library::cmos025();
    let options = FlowOptions {
        vt_assignment: true,
        ..FlowOptions::default()
    };
    for (name, (hvt, gates, leakage)) in CIRCUITS.into_iter().zip(VT) {
        let (circuit, t0) = circuit_and_t0(name, &lib);
        let r = optimize_circuit(&circuit, &lib, 1.4 * t0, &options).expect("flow runs");
        assert_eq!(
            [r.hvt_gates, r.circuit.gate_count()],
            [hvt, gates],
            "{name}: [high-Vt gates, gates]"
        );
        assert_rel(name, "leakage (nW)", r.leakage_nw, leakage);
    }
}
