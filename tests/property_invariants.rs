//! Property-based tests over the optimization invariants the paper's
//! method rests on: convexity, bound optimality, constraint satisfaction
//! and gradient consistency.
//!
//! Randomized with the in-tree deterministic [`SplitMix64`] generator
//! (the workspace builds offline, so no external property-testing
//! framework): each property runs over 64 seeded random cases.

use pops::core::bounds::{delay_bounds, tmin};
use pops::core::gradient::analytic_gradient;
use pops::core::sensitivity::{distribute_constraint, solve_for_sensitivity};
use pops::netlist::rng::SplitMix64;
use pops::prelude::*;

const CASES: usize = 64;

const CELLS: [CellKind; 8] = [
    CellKind::Inv,
    CellKind::Nand2,
    CellKind::Nand3,
    CellKind::Nor2,
    CellKind::Nor3,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
];

/// Random bounded path: 2–8 stages of random cells with random off-path
/// loads and a random terminal load (mirrors the old proptest strategy).
fn random_path(rng: &mut SplitMix64) -> TimedPath {
    let n = 2 + rng.below(7);
    let stages: Vec<PathStage> = (0..n)
        .map(|_| PathStage::with_load(*rng.pick(&CELLS), rng.uniform(0.0, 40.0)))
        .collect();
    let terminal = rng.uniform(10.0, 250.0);
    TimedPath::new(stages, 2.7, terminal)
}

/// Random path plus a random feasible sizing (source drive pinned).
fn random_sized_path(rng: &mut SplitMix64) -> (TimedPath, Vec<f64>) {
    let path = random_path(rng);
    let lib = Library::cmos025();
    let mut sizes: Vec<f64> = (0..path.len())
        .map(|_| rng.uniform(1.0, 40.0) * lib.min_drive_ff())
        .collect();
    sizes[0] = path.source_drive_ff();
    (path, sizes)
}

#[test]
fn delay_is_positive_and_finite() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB0);
    for _ in 0..CASES {
        let (path, sizes) = random_sized_path(&mut rng);
        let d = path.delay(&lib, &sizes);
        assert!(d.total_ps.is_finite());
        assert!(d.total_ps > 0.0);
        for s in &d.stages {
            assert!(s.delay_ps > 0.0);
            assert!(s.transition_ps > 0.0);
        }
    }
}

#[test]
fn no_sizing_beats_tmin() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB1);
    for _ in 0..CASES {
        let (path, sizes) = random_sized_path(&mut rng);
        let best = tmin(&lib, &path);
        let probe = path.delay(&lib, &sizes).total_ps;
        assert!(
            probe >= best.delay_ps * (1.0 - 1e-6),
            "random sizing {probe} undercuts Tmin {}",
            best.delay_ps
        );
    }
}

#[test]
fn tmin_and_tmax_bracket_the_constraint_solver() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB2);
    for _ in 0..CASES {
        let path = random_path(&mut rng);
        let b = delay_bounds(&lib, &path);
        assert!(b.tmin_ps <= b.tmax_ps * (1.0 + 1e-9));
        // Any feasible constraint is met, with delay in [tmin, tc].
        for f in [1.01f64, 1.3, 2.0, 3.5] {
            let tc = f * b.tmin_ps;
            let sol = distribute_constraint(&lib, &path, tc);
            let sol = sol.expect("tc >= tmin must be feasible");
            assert!(sol.delay_ps <= tc * 1.0001);
            assert!(sol.delay_ps >= b.tmin_ps * (1.0 - 1e-6));
        }
    }
}

#[test]
fn infeasible_constraints_are_rejected() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB3);
    for _ in 0..CASES {
        let path = random_path(&mut rng);
        let b = delay_bounds(&lib, &path);
        if path.len() > 1 && b.tmax_ps > b.tmin_ps * 1.05 {
            let err = distribute_constraint(&lib, &path, 0.8 * b.tmin_ps);
            assert!(matches!(err, Err(OptimizeError::Infeasible { .. })));
        }
    }
}

#[test]
fn sensitivity_sweep_is_monotone() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB4);
    for _ in 0..CASES {
        let path = random_path(&mut rng);
        let mut last_delay = f64::NEG_INFINITY;
        let mut last_area = f64::INFINITY;
        // a descending from 0: delay grows, area shrinks.
        for a in [0.0f64, -0.05, -0.3, -1.5, -8.0, -50.0] {
            let p = solve_for_sensitivity(&lib, &path, a);
            assert!(p.delay_ps >= last_delay - 1e-6);
            assert!(p.total_cin_ff <= last_area + 1e-6);
            last_delay = p.delay_ps;
            last_area = p.total_cin_ff;
        }
    }
}

#[test]
fn analytic_gradient_matches_numeric() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB5);
    for _ in 0..CASES {
        let (path, sizes) = random_sized_path(&mut rng);
        let ana = analytic_gradient(&lib, &path, &sizes);
        let num = path.gradient(&lib, &sizes);
        let scale = num.iter().fold(1e-6f64, |m, g| m.max(g.abs()));
        for i in 1..path.len() {
            assert!(
                (ana[i] - num[i]).abs() <= 5e-3 * scale,
                "stage {i}: {} vs {}",
                ana[i],
                num[i]
            );
        }
    }
}

#[test]
fn delay_is_monotone_in_terminal_load() {
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB6);
    for _ in 0..CASES {
        let n = 2 + rng.below(5);
        let stages: Vec<PathStage> = (0..n).map(|_| PathStage::new(*rng.pick(&CELLS))).collect();
        let t1 = rng.uniform(10.0, 100.0);
        let extra = rng.uniform(1.0, 200.0);
        let p1 = TimedPath::new(stages.clone(), 2.7, t1);
        let p2 = TimedPath::new(stages, 2.7, t1 + extra);
        let sizes = p1.min_sizes(&lib);
        assert!(p2.delay(&lib, &sizes).total_ps > p1.delay(&lib, &sizes).total_ps);
    }
}

#[test]
fn path_delay_is_unimodal_along_random_coordinates() {
    // The paper's convexity claim (§2.2) is exact for the simplified
    // A·C_L/C_IN form; the full model's Miller factor bends it into
    // *quasi*-convexity. The optimizers only need unimodality (link
    // equations + golden sections), which is what we assert: once the
    // delay starts rising along a coordinate, it never falls again.
    let lib = Library::cmos025();
    let mut rng = SplitMix64::new(0xB7);
    for _ in 0..CASES {
        let (path, sizes) = random_sized_path(&mut rng);
        if path.len() < 2 {
            continue;
        }
        let i = 1 + rng.below(path.len() - 1);
        let mut probe = sizes.clone();
        let ys: Vec<f64> = (0..24)
            .map(|k| {
                let f = 0.4 * 1.35f64.powi(k);
                probe[i] = (sizes[i] * f).max(lib.min_drive_ff());
                path.delay(&lib, &probe).total_ps
            })
            .collect();
        let tol = 1e-9;
        let mut rising = false;
        for w in ys.windows(2) {
            if rising {
                assert!(
                    w[1] >= w[0] * (1.0 - tol),
                    "delay fell after rising: {} -> {}",
                    w[0],
                    w[1]
                );
            } else if w[1] > w[0] * (1.0 + tol) {
                rising = true;
            }
        }
    }
}
