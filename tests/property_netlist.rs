//! Property-based tests over the netlist substrate: random DAG
//! construction, logic evaluation, `.bench` round-trips and STA sanity.
//!
//! Randomized with the in-tree deterministic [`SplitMix64`] generator
//! (the workspace builds offline, so no external property-testing
//! framework): each property runs over 48 seeded random cases.

use std::collections::HashMap;

use pops::netlist::bench_format::{parse_bench, write_bench};
use pops::netlist::rng::SplitMix64;
use pops::prelude::*;

const CASES: u64 = 48;

/// Deterministically build a random layered DAG from a seed.
fn random_circuit(seed: u64, n_inputs: usize, n_gates: usize) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(format!("rand_{seed:x}"));
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| c.add_input(format!("i{i}")))
        .collect();
    let cells = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Nand3,
        CellKind::Nor3,
    ];
    for g in 0..n_gates {
        let kind = cells[rng.below(cells.len())];
        let mut inputs = Vec::with_capacity(kind.num_inputs());
        while inputs.len() < kind.num_inputs() {
            let candidate = nets[rng.below(nets.len())];
            if !inputs.contains(&candidate) || nets.len() < 3 {
                inputs.push(candidate);
            }
        }
        let out = c
            .add_gate(kind, &inputs, format!("g{g}"))
            .expect("arity correct by construction");
        nets.push(out);
    }
    // All sinks become outputs.
    let sinks: Vec<NetId> = c
        .net_ids()
        .filter(|&n| {
            c.net(n).loads().is_empty() && matches!(c.net(n).driver(), Some(NetDriver::Gate(_)))
        })
        .collect();
    for n in sinks {
        c.mark_output(n);
    }
    c
}

fn random_vector(c: &Circuit, seed: u64) -> HashMap<&str, bool> {
    let mut rng = SplitMix64::new(seed);
    c.primary_inputs()
        .iter()
        .map(|&n| (c.net(n).name(), rng.chance(0.5)))
        .collect()
}

#[test]
fn random_circuits_validate_and_order() {
    let mut gen = SplitMix64::new(0xA0);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let n_inputs = 2 + gen.below(6);
        let n_gates = 1 + gen.below(39);
        let c = random_circuit(seed, n_inputs, n_gates);
        assert!(c.validate().is_ok());
        let order = c.topo_order().expect("acyclic by construction");
        assert_eq!(order.len(), c.gate_count());
        // Fanin-before-fanout.
        let mut pos = vec![0usize; c.gate_count()];
        for (i, g) in order.iter().enumerate() {
            pos[g.index()] = i;
        }
        for g in c.gate_ids() {
            for &n in c.gate(g).inputs() {
                if let Some(NetDriver::Gate(src)) = c.net(n).driver() {
                    assert!(pos[src.index()] < pos[g.index()]);
                }
            }
        }
    }
}

#[test]
fn bench_round_trip_preserves_function() {
    let mut gen = SplitMix64::new(0xA1);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let vec_seed = gen.next_u64();
        let c = random_circuit(seed, 5, 20);
        let text = write_bench(&c);
        let r = parse_bench(c.name(), &text).expect("own output parses");
        assert_eq!(r.gate_count(), c.gate_count());
        let vals = random_vector(&c, vec_seed);
        let out_a = c.evaluate(&vals).expect("evaluable");
        let out_b = r.evaluate(&vals).expect("evaluable");
        assert_eq!(out_a, out_b);
    }
}

#[test]
fn evaluation_is_deterministic() {
    let mut gen = SplitMix64::new(0xA2);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let vec_seed = gen.next_u64();
        let c = random_circuit(seed, 4, 15);
        let vals = random_vector(&c, vec_seed);
        assert_eq!(
            c.evaluate(&vals).expect("ok"),
            c.evaluate(&vals).expect("ok")
        );
    }
}

#[test]
fn sta_arrival_covers_every_output() {
    let lib = Library::cmos025();
    let mut gen = SplitMix64::new(0xA3);
    for _ in 0..CASES {
        let c = random_circuit(gen.next_u64(), 4, 25);
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).expect("acyclic");
        let critical = report.critical_delay_ps();
        assert!(critical > 0.0);
        for &po in c.primary_outputs() {
            let arr = report
                .arrival_ps(po, pops::sta::analysis::EdgeDir::Rising)
                .max(report.arrival_ps(po, pops::sta::analysis::EdgeDir::Falling));
            assert!(arr <= critical + 1e-9);
        }
    }
}

#[test]
fn critical_path_is_connected_and_reaches_an_output() {
    let lib = Library::cmos025();
    let mut gen = SplitMix64::new(0xA4);
    for _ in 0..CASES {
        let c = random_circuit(gen.next_u64(), 4, 25);
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).expect("acyclic");
        let path = report.critical_path();
        assert!(!path.gates.is_empty());
        for w in path.gates.windows(2) {
            let out = c.gate(w[0]).output();
            assert!(c.net(out).loads().iter().any(|&(g, _)| g == w[1]));
        }
        let last_net = c.gate(*path.gates.last().unwrap()).output();
        assert!(c.net(last_net).is_output());
    }
}

#[test]
fn extraction_matches_path_length() {
    let lib = Library::cmos025();
    let mut gen = SplitMix64::new(0xA5);
    for _ in 0..CASES {
        let c = random_circuit(gen.next_u64(), 4, 30);
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).expect("acyclic");
        let path = report.critical_path();
        let e = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
        assert_eq!(e.timed.len(), path.gates.len());
        // Off-path loads are non-negative and terminal is positive.
        for s in e.timed.stages() {
            assert!(s.off_path_load_ff >= 0.0);
        }
        assert!(e.timed.terminal_load_ff() > 0.0);
    }
}

#[test]
fn demorgan_dual_preserves_logic_on_random_vectors() {
    // NORn(x…) == !NANDn(!x…)
    for cell in [CellKind::Nor2, CellKind::Nor3, CellKind::Nor4] {
        let n = cell.num_inputs();
        let dual = cell.demorgan_dual().expect("NORs have duals");
        for bits in 0u32..(1 << n) {
            let ins: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let inverted: Vec<bool> = ins.iter().map(|&b| !b).collect();
            assert_eq!(cell.evaluate(&ins), !dual.evaluate(&inverted));
        }
    }
}
