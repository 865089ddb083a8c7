//! The link-equation solvers, pinned against a reference copy of the
//! paper's sweep.
//!
//! The reference below is the straightforward form of the eq. (4)/(6)
//! sweep: rebuild the whole operating point (`A_i`, loads, Miller
//! corrections) at the current sizing once per sweep, then apply the
//! forward update over the interior stages. `tmin_with` runs that sweep
//! and must reproduce it to the last bit — sizes, delays, sweep counts
//! and Fig. 1's trace. `solve_for_sensitivity` solves the same equations
//! exactly by Newton's method and must land on the reference sweep's
//! fixed point, run to convergence. Both are checked on the suite's
//! critical paths and on seeded random paths.

use pops::core::bounds::{tmin_with, TminOptions};
use pops::core::sensitivity::solve_for_sensitivity;
use pops::netlist::cell::ALL_CELLS;
use pops::netlist::rng::SplitMix64;
use pops::prelude::*;

/// Per-stage coefficients at one sizing, as the reference computes them.
struct RefPoint {
    a: Vec<f64>,
    up_corr: Vec<f64>,
    own_corr: Vec<f64>,
}

fn reference_operating_point(lib: &Library, path: &TimedPath, sizes: &[f64]) -> RefPoint {
    let n = path.len();
    let process = lib.process();
    let tau = process.tau_ps;
    let mut in_edges = Vec::with_capacity(n);
    let mut edge = path.input_edge();
    for stage in path.stages() {
        in_edges.push(edge);
        edge = edge.through(stage.cell);
    }
    let mut a = Vec::with_capacity(n);
    let mut up_corr = Vec::with_capacity(n);
    let mut own_corr = Vec::with_capacity(n);
    for i in 0..n {
        let stage = &path.stages()[i];
        let cell = lib.cell(stage.cell);
        let out_edge = in_edges[i].through(stage.cell);
        let s_i = cell.s_factor(process, out_edge);
        let cl_ext = path.stage_load_ff(i, sizes);
        let c = sizes[i];
        let cl_tot = cell.cpar_ff(c) + cl_ext;
        let cm = cell.miller_ff(c, in_edges[i]);
        let miller = 1.0 + 2.0 * cm / (cm + cl_tot);
        let tau_out = tau * s_i * cl_tot / c;
        let vt_next = if i + 1 < n {
            match out_edge {
                Edge::Rising => process.vtn_reduced(),
                Edge::Falling => process.vtp_reduced(),
            }
        } else {
            0.0
        };
        a.push(tau * s_i * (miller + vt_next) / 2.0);
        let dm_dcl = -2.0 * cm / ((cm + cl_tot) * (cm + cl_tot));
        up_corr.push(0.5 * dm_dcl * tau_out);
        let beta = cm / c;
        let denom = beta * c + cell.cpar_factor * c + cl_ext;
        let dm_dc = 2.0 * beta * cl_ext / (denom * denom);
        own_corr.push(0.5 * dm_dc * tau_out);
    }
    RefPoint {
        a,
        up_corr,
        own_corr,
    }
}

/// The reference sweep: returns the sweeps run.
fn reference_sweep(
    lib: &Library,
    path: &TimedPath,
    a: f64,
    sizes: &mut [f64],
    max_sweeps: usize,
    tolerance: f64,
    mut after_sweep: impl FnMut(&[f64]),
) -> usize {
    let cref = lib.min_drive_ff();
    let mut sweeps = 0;
    while sweeps < max_sweeps {
        sweeps += 1;
        let op = reference_operating_point(lib, path, sizes);
        let mut max_rel_change: f64 = 0.0;
        for i in 1..path.len() {
            let cl = path.stage_load_ff(i, sizes);
            let upstream = op.a[i - 1] / sizes[i - 1] + op.up_corr[i - 1] + op.own_corr[i];
            let target = (op.a[i] * cl / (upstream - a).max(1e-12)).sqrt();
            let new = target.max(cref);
            max_rel_change = max_rel_change.max((new - sizes[i]).abs() / sizes[i]);
            sizes[i] = new;
        }
        after_sweep(sizes);
        if max_rel_change < tolerance {
            break;
        }
    }
    sweeps
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The reference sweep run to convergence: it stops once no size moves
/// by 1e-15 relative, after at most about 1,200 sweeps on these paths.
const CONVERGED_SWEEPS: usize = 100_000;
const CONVERGED_TOLERANCE: f64 = 1e-15;

/// The exact solve against the reference sweep run to convergence: every
/// size and the delay within 1e-12 relative (measured: 3.4e-14 and
/// 6.5e-16 at worst).
fn assert_solves_match(lib: &Library, path: &TimedPath, label: &str) {
    for a in [-1e-3, -1e-2, -0.1, -1.0, -10.0, -1e3] {
        let got = solve_for_sensitivity(lib, path, a);
        let mut sizes = path.min_sizes(lib);
        let sweeps = reference_sweep(
            lib,
            path,
            a,
            &mut sizes,
            CONVERGED_SWEEPS,
            CONVERGED_TOLERANCE,
            |_| {},
        );
        assert!(
            sweeps < CONVERGED_SWEEPS,
            "{label} a={a}: sweep not converged"
        );
        for (i, (g, s)) in got.sizes.iter().zip(&sizes).enumerate() {
            assert!(
                (g - s).abs() <= 1e-12 * s,
                "{label} a={a} stage {i}: size {g} vs {s}"
            );
        }
        let delay = path.delay(lib, &sizes).total_ps;
        assert!(
            (got.delay_ps - delay).abs() <= 1e-12 * delay,
            "{label} a={a}: delay {} vs {delay}",
            got.delay_ps
        );
    }
}

fn assert_tmin_with_matches(lib: &Library, path: &TimedPath, label: &str) {
    let cref = lib.min_drive_ff();
    for start in [None, Some(40.0)] {
        let options = TminOptions {
            start_cin_ff: start,
            ..Default::default()
        };
        let got = tmin_with(lib, path, &options);
        let mut sizes = path.min_sizes(lib);
        if let Some(s) = start {
            for c in sizes.iter_mut().skip(1) {
                *c = s;
            }
        }
        let mut trace = Vec::new();
        let mut record = |sizes: &[f64]| {
            trace.push((
                sizes.iter().sum::<f64>() / cref,
                path.delay(lib, sizes).total_ps,
            ));
        };
        record(&sizes);
        let sweeps = reference_sweep(
            lib,
            path,
            0.0,
            &mut sizes,
            options.max_sweeps,
            options.tolerance,
            &mut record,
        );
        assert_eq!(bits(&got.sizes), bits(&sizes), "{label} {start:?}: sizes");
        assert_eq!(
            got.delay_ps.to_bits(),
            path.delay(lib, &sizes).total_ps.to_bits(),
            "{label} {start:?}: delay"
        );
        assert_eq!(got.iterations, sweeps, "{label} {start:?}: sweeps");
        let got_trace: Vec<(u64, u64)> = got
            .trace
            .iter()
            .map(|t| (t.total_cin_over_cref.to_bits(), t.delay_ps.to_bits()))
            .collect();
        let want_trace: Vec<(u64, u64)> = trace
            .iter()
            .map(|&(x, d)| (x.to_bits(), d.to_bits()))
            .collect();
        assert_eq!(got_trace, want_trace, "{label} {start:?}: Fig. 1 trace");
    }
}

fn critical_path(name: &str, lib: &Library) -> TimedPath {
    let circuit = pops::netlist::suite::circuit(name).expect("known circuit");
    let sizing = Sizing::minimum(&circuit, lib);
    let report = analyze(&circuit, lib, &sizing).expect("acyclic");
    let path = report.critical_path();
    extract_timed_path(&circuit, lib, &sizing, &path, &AnalyzeOptions::default()).timed
}

const SUITE: [&str; 6] = ["fpd", "c432", "c880", "c1908", "c6288", "c7552"];

/// Random bounded path: 1–60 stages of any cell, off-path loads, either
/// input edge, a source drive of 1–4·C_REF.
fn random_path(rng: &mut SplitMix64, lib: &Library) -> TimedPath {
    let cref = lib.min_drive_ff();
    let n = 1 + rng.below(60);
    let stages: Vec<PathStage> = (0..n)
        .map(|_| {
            let load = if rng.chance(0.5) {
                rng.uniform(0.0, 60.0)
            } else {
                0.0
            };
            PathStage::with_load(*rng.pick(&ALL_CELLS), load)
        })
        .collect();
    let source = rng.uniform(1.0, 4.0) * cref;
    let terminal = rng.uniform(1.0, 300.0);
    let edge = if rng.chance(0.5) {
        Edge::Rising
    } else {
        Edge::Falling
    };
    TimedPath::new(stages, source, terminal).with_input_conditions(edge, rng.uniform(0.0, 150.0))
}

const RANDOM_PATHS: usize = 200;

#[test]
fn sensitivity_solves_match_the_converged_reference_sweep() {
    let lib = Library::cmos025();
    for name in SUITE {
        assert_solves_match(&lib, &critical_path(name, &lib), name);
    }
    let mut rng = SplitMix64::new(0x51EE_9001);
    for case in 0..RANDOM_PATHS {
        let path = random_path(&mut rng, &lib);
        assert_solves_match(&lib, &path, &format!("random path {case}"));
    }
}

#[test]
fn tmin_with_matches_the_reference_sweep_bit_for_bit() {
    let lib = Library::cmos025();
    for name in SUITE {
        assert_tmin_with_matches(&lib, &critical_path(name, &lib), name);
    }
    let mut rng = SplitMix64::new(0x51EE_9002);
    for case in 0..RANDOM_PATHS {
        let path = random_path(&mut rng, &lib);
        assert_tmin_with_matches(&lib, &path, &format!("random path {case}"));
    }
}
