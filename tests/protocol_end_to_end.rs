//! Integration: the full netlist → STA → extraction → protocol pipeline
//! on the benchmark suite (the paper's Fig. 7 flow, end to end).

use pops::prelude::*;

fn extract(name: &str, lib: &Library) -> TimedPath {
    let circuit = pops::netlist::suite::circuit(name).expect("known circuit");
    let sizing = Sizing::minimum(&circuit, lib);
    let report = analyze(&circuit, lib, &sizing).expect("acyclic");
    let path = report.critical_path();
    extract_timed_path(&circuit, lib, &sizing, &path, &AnalyzeOptions::default()).timed
}

#[test]
fn every_circuit_optimizes_in_every_domain() {
    let lib = Library::cmos025();
    for name in ["fpd", "c432", "c880", "c1355"] {
        let path = extract(name, &lib);
        let bounds = delay_bounds(&lib, &path);
        assert!(bounds.tmin_ps < bounds.tmax_ps, "{name}");
        for factor in [1.05, 1.3, 2.0, 3.0] {
            let tc = factor * bounds.tmin_ps;
            let out = optimize(&lib, &path, tc, &ProtocolOptions::default())
                .unwrap_or_else(|e| panic!("{name} @ {factor}: {e}"));
            assert!(
                out.delay_ps <= tc * 1.001,
                "{name} @ {factor}: {} > {tc}",
                out.delay_ps
            );
            assert!(out.total_cin_ff > 0.0);
        }
    }
}

#[test]
fn area_is_monotone_in_the_constraint() {
    // Relaxing the constraint must never cost more area (the protocol
    // picks the min-area candidate).
    let lib = Library::cmos025();
    let path = extract("c432", &lib);
    let bounds = delay_bounds(&lib, &path);
    let mut last = f64::INFINITY;
    for factor in [1.05, 1.2, 1.5, 2.0, 2.6, 3.2] {
        let out = optimize(
            &lib,
            &path,
            factor * bounds.tmin_ps,
            &ProtocolOptions::default(),
        )
        .expect("feasible");
        assert!(
            out.total_cin_ff <= last * 1.001,
            "area went up when relaxing: {} -> {}",
            last,
            out.total_cin_ff
        );
        last = out.total_cin_ff;
    }
}

#[test]
fn protocol_dominates_every_single_technique() {
    // The protocol returns the min-area candidate, so it can never lose
    // to sizing-only on area (when sizing-only is feasible).
    let lib = Library::cmos025();
    let path = extract("c880", &lib);
    let bounds = delay_bounds(&lib, &path);
    for factor in [1.1, 1.6, 2.4] {
        let tc = factor * bounds.tmin_ps;
        let full = optimize(&lib, &path, tc, &ProtocolOptions::default()).expect("feasible");
        let sizing_only = distribute_constraint(&lib, &path, tc).expect("feasible");
        assert!(
            full.total_cin_ff <= sizing_only.total_cin_ff * 1.001,
            "@{factor}: protocol {} vs sizing {}",
            full.total_cin_ff,
            sizing_only.total_cin_ff
        );
    }
}

#[test]
fn sub_tmin_constraints_use_structure_modification_or_fail_cleanly() {
    let lib = Library::cmos025();
    for name in ["c432", "c1355"] {
        let path = extract(name, &lib);
        let bounds = delay_bounds(&lib, &path);
        match optimize(
            &lib,
            &path,
            0.95 * bounds.tmin_ps,
            &ProtocolOptions::default(),
        ) {
            Ok(out) => {
                assert!(
                    out.inserted_buffers > 0 || out.restructured_gates > 0,
                    "{name}: sub-Tmin success must modify the structure"
                );
                assert!(out.delay_ps <= 0.95 * bounds.tmin_ps * 1.001);
            }
            Err(OptimizeError::Infeasible { tmin_ps, .. }) => {
                assert!(tmin_ps <= bounds.tmin_ps * 1.001);
            }
            Err(other) => panic!("{name}: unexpected error {other}"),
        }
    }
}

#[test]
fn outcome_delay_is_reproducible_from_the_returned_sizing() {
    let lib = Library::cmos025();
    let path = extract("fpd", &lib);
    let bounds = delay_bounds(&lib, &path);
    let out = optimize(
        &lib,
        &path,
        1.4 * bounds.tmin_ps,
        &ProtocolOptions::default(),
    )
    .expect("feasible");
    let recheck = out.path.delay(&lib, &out.sizes).total_ps;
    assert!((recheck - out.delay_ps).abs() < 1e-6);
}
