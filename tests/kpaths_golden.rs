//! Golden regression for `k_most_critical_paths`: the top-5 paths on
//! c1908 / c6288 / c7552 at minimum sizing under default options are
//! pinned — weight to 1e-9 ps, path length, endpoint net id and a
//! fingerprint of the exact gate sequence — so a change to the
//! completion bounds (derived per call, over either timing backend)
//! can never silently reorder, retarget or drop paths.
//!
//! If an *intentional* model or ranking change moves these values,
//! regenerate them with the snippet in this file's git history and
//! update the tables alongside the change that explains why.

use pops::prelude::*;
use pops::sta::path_weight_ps;
use pops::sta::TimingGraph;

/// Pinned facts about one ranked path: weight (ps), gate count,
/// endpoint output net index, FNV-1a-style fingerprint of the gate
/// index sequence.
type Golden = (f64, usize, usize, u64);

fn fingerprint(gates: &[GateId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in gates {
        h ^= g.index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const GOLDEN_C1908: [Golden; 5] = [
    (9401.125950855801, 42, 902, 0x5723cb22dbb8bf01),
    (9_393.772_013_569_11, 43, 903, 0x18292a3bb6612dd1),
    (9391.696448725226, 44, 911, 0x34c6c8080a672b47),
    (9388.332682043001, 42, 902, 0xb2bab5072d2d009b),
    (9_380.978_744_756_31, 43, 903, 0xe7126b0f0b7ede03),
];

const GOLDEN_C6288: [Golden; 5] = [
    (31117.902578996207, 116, 2436, 0x43e02ac5f57c9207),
    (31116.922891496208, 116, 2436, 0x4d9423799db86f6c),
    (31110.457918146218, 116, 2436, 0x537b0cafc0a9c896),
    (31_109.478_230_646_22, 116, 2436, 0xd484adbeebd93ac9),
    (31_074.299_922_769_89, 116, 2445, 0xadb6dac6b0a72920),
];

const GOLDEN_C7552: [Golden; 5] = [
    (26601.311385324334, 47, 3652, 0x29c81af3e2e12638),
    (26566.471724631563, 47, 3710, 0x29c764f3e2dff0f6),
    (26548.081792250865, 45, 3514, 0xbbcd02ce69f75f13),
    (26548.081792250865, 45, 3562, 0xbbccb2ce69f6d723),
    (26529.158158197995, 47, 3687, 0x288bf5f3e1ceb2ec),
];

fn check<V: pops::sta::TimingView + ?Sized>(
    name: &str,
    backend: &str,
    circuit: &Circuit,
    view: &V,
    golden: &[Golden; 5],
) {
    let paths = k_most_critical_paths(circuit, view, 5);
    assert_eq!(paths.len(), 5, "{name}/{backend}: path count");
    for (i, (path, &(weight, len, end_net, fp))) in paths.iter().zip(golden).enumerate() {
        let w = path_weight_ps(view, path);
        assert!(
            (w - weight).abs() < 1e-9,
            "{name}/{backend} path {i}: weight {w} vs pinned {weight}"
        );
        assert_eq!(path.gates.len(), len, "{name}/{backend} path {i}: length");
        let last = *path.gates.last().unwrap();
        assert_eq!(
            circuit.gate(last).output().index(),
            end_net,
            "{name}/{backend} path {i}: endpoint net"
        );
        assert_eq!(
            fingerprint(&path.gates),
            fp,
            "{name}/{backend} path {i}: gate sequence changed"
        );
    }
}

fn golden_case(name: &str, golden: &[Golden; 5]) {
    let lib = Library::cmos025();
    let circuit = suite::circuit(name).unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);

    // One-shot backend: completion bounds derived from scratch.
    let report = analyze(&circuit, &lib, &sizing).unwrap();
    check(name, "report", &circuit, &report, golden);

    // Incremental backend with a constraint set — including after a
    // resize/revert walk over the top path's cones, which must restore
    // the exact ranking.
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    graph.set_constraint(0.9 * graph.critical_delay_ps());
    check(name, "graph", &circuit, &graph, golden);
    let victims: Vec<GateId> = graph
        .critical_path()
        .gates
        .iter()
        .copied()
        .take(8)
        .collect();
    for &g in &victims {
        let orig = graph.sizing().cin_ff(g);
        graph.resize_gate(g, 4.0 * orig);
        graph.resize_gate(g, orig);
    }
    check(name, "graph+walk", &circuit, &graph, golden);
}

#[test]
fn c1908_top5_paths_are_pinned() {
    golden_case("c1908", &GOLDEN_C1908);
}

#[test]
fn c6288_top5_paths_are_pinned() {
    golden_case("c6288", &GOLDEN_C6288);
}

#[test]
fn c7552_top5_paths_are_pinned() {
    golden_case("c7552", &GOLDEN_C7552);
}
