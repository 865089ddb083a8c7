//! Regression pins: the deterministic suite + deterministic solvers must
//! keep producing the same headline numbers. These guard against silent
//! drift in the generator, the delay model or the optimizers.
//!
//! Bands are ±5 % around values measured at repository creation; a
//! legitimate model change that moves them should update this file
//! consciously (they are this repo's "golden" results).

use pops::core::bounds::{delay_bounds, golden_min, tmin, tmin_with, TminOptions};
use pops::prelude::*;

fn extract(name: &str, lib: &Library) -> TimedPath {
    let circuit = pops::netlist::suite::circuit(name).expect("known circuit");
    let sizing = Sizing::minimum(&circuit, lib);
    let report = analyze(&circuit, lib, &sizing).expect("acyclic");
    let path = report.critical_path();
    extract_timed_path(&circuit, lib, &sizing, &path, &AnalyzeOptions::default()).timed
}

/// (circuit, Tmin in ps) measured at repo creation.
const TMIN_GOLDEN: &[(&str, f64)] = &[
    ("adder16", 5514.0),
    ("c432", 2071.0),
    ("c499", 2249.0),
    ("c880", 2512.0),
    ("c1355", 2372.0),
    ("c1908", 3162.0),
    ("c3540", 4790.0),
    ("c5315", 5538.0),
    ("c6288", 7137.0),
    ("c7552", 6079.0),
];

#[test]
fn tmin_values_stay_pinned() {
    let lib = Library::cmos025();
    for &(name, golden) in TMIN_GOLDEN {
        let path = extract(name, &lib);
        let b = delay_bounds(&lib, &path);
        let rel = (b.tmin_ps - golden).abs() / golden;
        assert!(
            rel < 0.05,
            "{name}: Tmin {} vs golden {golden} (drift {:.1}%)",
            b.tmin_ps,
            rel * 100.0
        );
    }
}

/// An independent descent from Tmin: six cycles of golden-section
/// coordinate search on the full delay model, one line search per
/// interior size on `[C_REF, max(16·c, 64·C_REF)]`.
fn line_search_descent(lib: &Library, path: &TimedPath, sizes: &mut [f64]) {
    let cref = lib.min_drive_ff();
    for _ in 0..6 {
        for i in 1..sizes.len() {
            let best = golden_min(
                |c| {
                    let mut probe = sizes.to_vec();
                    probe[i] = c;
                    path.delay(lib, &probe).total_ps
                },
                cref,
                (sizes[i] * 16.0).max(cref * 64.0),
            );
            sizes[i] = best;
        }
    }
}

#[test]
fn tmin_is_within_its_band_of_the_line_search_minimum() {
    // Tmin is the exact link-equation fixed point; line searches started
    // from it must not find a delay 1e-12 (relative) or more below it on
    // the longest suite paths.
    let lib = Library::cmos025();
    for name in ["c6288", "adder16", "c5315"] {
        let path = extract(name, &lib);
        let t = tmin(&lib, &path);
        let mut sizes = t.sizes.clone();
        line_search_descent(&lib, &path, &mut sizes);
        let lowered = (t.delay_ps - path.delay(&lib, &sizes).total_ps) / t.delay_ps;
        assert!(
            lowered < 1e-12,
            "{name}: line search lowers Tmin {} ps by {lowered:.2e} relative",
            t.delay_ps
        );
    }
}

#[test]
fn tmin_is_the_converged_sweep_fixed_point() {
    // The paper's sweeps run to convergence (about 10,000 sweeps on
    // c6288) reach the same fixed point as the Newton Tmin.
    let lib = Library::cmos025();
    let converged = TminOptions {
        start_cin_ff: None,
        max_sweeps: 100_000,
        tolerance: 1e-15,
    };
    for name in ["c1908", "c5315", "c6288", "c7552", "adder16"] {
        let path = extract(name, &lib);
        let t = tmin(&lib, &path);
        let swept = tmin_with(&lib, &path, &converged);
        let rel = (t.delay_ps - swept.delay_ps).abs() / swept.delay_ps;
        assert!(
            rel < 1e-12,
            "{name}: Tmin {} vs {} after {} sweeps ({rel:.2e} relative)",
            t.delay_ps,
            swept.delay_ps,
            swept.iterations
        );
    }
}

#[test]
fn suite_path_lengths_stay_pinned() {
    // Table 1's "gate nb" column is a hard structural invariant of the
    // generator (the spine construction guarantees it).
    let lib = Library::cmos025();
    let expected = [
        ("adder16", 99),
        ("fpd", 14),
        ("c432", 29),
        ("c499", 29),
        ("c880", 28),
        ("c1355", 30),
        ("c1908", 44),
        ("c3540", 58),
        ("c5315", 60),
        ("c6288", 116),
        ("c7552", 47),
    ];
    for (name, gates) in expected {
        let path = extract(name, &lib);
        assert!(
            path.len() >= gates - 1 && path.len() <= gates,
            "{name}: extracted {} stages, expected ~{gates}",
            path.len()
        );
    }
}

#[test]
fn flimit_table_stays_pinned() {
    let lib = Library::cmos025();
    let golden = [
        (CellKind::Inv, 7.1),
        (CellKind::Nand2, 6.7),
        (CellKind::Nand3, 4.9),
        (CellKind::Nor2, 4.0),
        (CellKind::Nor3, 3.1),
    ];
    for (gate, value) in golden {
        let f = flimit(&lib, CellKind::Inv, gate).expect("crossover exists");
        let rel = (f - value).abs() / value;
        assert!(rel < 0.05, "{gate}: Flimit {f} vs golden {value}");
    }
}

#[test]
fn eleven_gate_tmin_stays_pinned() {
    // Fig. 1/3's 666.5 ps anchor.
    use pops::netlist::CellKind::*;
    let lib = Library::cmos025();
    let path = TimedPath::new(
        vec![
            PathStage::new(Inv),
            PathStage::new(Nand2),
            PathStage::new(Inv),
            PathStage::with_load(Nor2, 5.0),
            PathStage::new(Nand3),
            PathStage::new(Inv),
            PathStage::new(Nor3),
            PathStage::with_load(Nand2, 8.0),
            PathStage::new(Inv),
            PathStage::new(Nor2),
            PathStage::new(Inv),
        ],
        lib.min_drive_ff(),
        90.0,
    );
    let b = delay_bounds(&lib, &path);
    assert!(
        (b.tmin_ps - 666.5).abs() < 0.05 * 666.5,
        "eleven-gate Tmin {}",
        b.tmin_ps
    );
}
