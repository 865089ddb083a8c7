//! The constant sensitivity method (§3.2, eq. 5–6, Figs. 3–4).
//!
//! Instead of giving every stage the same delay (Sutherland) the paper
//! imposes the same *sensitivity* on every sizing variable:
//! `∂T/∂C_IN(i) = a ≤ 0`. Each value of `a` picks one point on the
//! area/delay Pareto front (`a = 0` is `Tmin`; `a → −∞` collapses to
//! minimum drives, i.e. `Tmax`), so a delay constraint is met at minimum
//! area by bisecting on the scalar `a`.
//!
//! The solves here run the paper's link-equation sweeps within a budget
//! of 40. Near `a = 0` that budget stops short of the fixed point on long
//! paths, so the bisection takes its `a = 0` end from the exact
//! [`crate::bounds::tmin`] rather than from a solve at `a = 0`.

use pops_delay::{Library, TimedPath};

use crate::bounds::tmin;
use crate::error::OptimizeError;
use crate::gradient::sweep_links;

/// Options for the constant-sensitivity solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityOptions {
    /// Maximum fixed-point sweeps for one `a` value.
    pub max_sweeps: usize,
    /// Relative convergence tolerance on sizes.
    pub tolerance: f64,
    /// Maximum bisection steps on `a`.
    pub max_bisections: usize,
    /// Acceptable relative delay error versus the constraint.
    pub delay_tolerance: f64,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        SensitivityOptions {
            max_sweeps: 40,
            tolerance: 1e-8,
            max_bisections: 60,
            delay_tolerance: 1e-5,
        }
    }
}

/// One equal-sensitivity design point (one point on Fig. 3's curve).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// The sensitivity coefficient `a` (ps/fF, ≤ 0).
    pub a: f64,
    /// Sizing solving `∂T/∂C_IN(i) = a` (clamped at minimum drive).
    pub sizes: Vec<f64>,
    /// Path delay at this point (ps).
    pub delay_ps: f64,
    /// Total input capacitance (fF), the area/power proxy.
    pub total_cin_ff: f64,
}

impl SensitivityPoint {
    fn into_solution(self, tc_ps: f64, bisections: usize) -> ConstraintSolution {
        ConstraintSolution {
            a: self.a,
            slack_ps: tc_ps - self.delay_ps,
            sizes: self.sizes,
            delay_ps: self.delay_ps,
            total_cin_ff: self.total_cin_ff,
            bisections,
        }
    }
}

/// Solution of a constraint distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintSolution {
    /// The selected sensitivity coefficient.
    pub a: f64,
    /// Final sizing.
    pub sizes: Vec<f64>,
    /// Achieved delay (ps), ≤ the constraint within tolerance.
    pub delay_ps: f64,
    /// Achieved slack `tc − delay` (ps) — what a slack-driven caller
    /// (the circuit flow sizing against per-endpoint required times)
    /// reads back; ≥ 0 within the delay tolerance.
    pub slack_ps: f64,
    /// Total input capacitance (fF).
    pub total_cin_ff: f64,
    /// Bisection steps used.
    pub bisections: usize,
}

/// Solve the equal-sensitivity system for a given `a ≤ 0` (eq. 6).
///
/// Sweeps `C_IN(i) ← √( A_i·C_L(i) / (A_{i−1}/C_IN(i−1) − a) )` over the
/// interior stages with coefficients re-frozen each sweep, clamping at the
/// minimum drive.
///
/// # Panics
///
/// Panics if `a > 0` (positive sensitivities have no solution on a
/// bounded path: the delay would have to *decrease* with extra area).
pub fn solve_for_sensitivity(
    lib: &Library,
    path: &TimedPath,
    a: f64,
    options: &SensitivityOptions,
) -> SensitivityPoint {
    assert!(a <= 0.0, "the sensitivity coefficient must be non-positive");
    let mut sizes = path.min_sizes(lib);
    sweep_links(
        lib,
        path,
        a,
        &mut sizes,
        options.max_sweeps,
        options.tolerance,
        |_| {},
    );

    let delay_ps = path.delay(lib, &sizes).total_ps;
    let total_cin_ff = sizes.iter().sum();
    SensitivityPoint {
        a,
        sizes,
        delay_ps,
        total_cin_ff,
    }
}

/// Sweep the design space over a list of `a` values (Fig. 3's curve).
pub fn design_space_sweep(
    lib: &Library,
    path: &TimedPath,
    a_values: &[f64],
    options: &SensitivityOptions,
) -> Vec<SensitivityPoint> {
    a_values
        .iter()
        .map(|&a| solve_for_sensitivity(lib, path, a, options))
        .collect()
}

/// Distribute a delay constraint on the path at minimum area (eq. 5–6).
///
/// Bisects on `a ∈ [a_lo, 0]`: `a = 0` gives `Tmin`; decreasing `a`
/// shrinks every gate (less area, more delay) until the constraint is
/// met exactly. "Few iterations on the `a` value allows a quick
/// satisfaction of the delay constraint."
///
/// # Errors
///
/// [`OptimizeError::InvalidConstraint`] when `tc_ps` is NaN, zero or
/// negative; [`OptimizeError::Infeasible`] if `tc_ps < Tmin`
/// (structure modification required — see [`crate::buffer`] and
/// [`crate::restructure`]).
pub fn distribute_constraint(
    lib: &Library,
    path: &TimedPath,
    tc_ps: f64,
) -> Result<ConstraintSolution, OptimizeError> {
    distribute_constraint_with(lib, path, tc_ps, &SensitivityOptions::default())
}

/// [`distribute_constraint`] with explicit options.
///
/// # Errors
///
/// As [`distribute_constraint`].
pub fn distribute_constraint_with(
    lib: &Library,
    path: &TimedPath,
    tc_ps: f64,
    options: &SensitivityOptions,
) -> Result<ConstraintSolution, OptimizeError> {
    if tc_ps.is_nan() || tc_ps <= 0.0 {
        return Err(OptimizeError::InvalidConstraint { tc_ps });
    }
    let t = tmin(lib, path);
    distribute_from_tmin(lib, path, tc_ps, t.delay_ps, t.sizes, options)
}

/// [`distribute_constraint_with`] from the path's solved `Tmin` (delay and
/// sizing), the bisection's `a = 0` end; infeasible exactly when
/// `tc_ps < tmin_ps`. The caller has checked that `tc_ps` is valid.
pub(crate) fn distribute_from_tmin(
    lib: &Library,
    path: &TimedPath,
    tc_ps: f64,
    tmin_ps: f64,
    tmin_sizes: Vec<f64>,
    options: &SensitivityOptions,
) -> Result<ConstraintSolution, OptimizeError> {
    if tc_ps < tmin_ps {
        return Err(OptimizeError::Infeasible { tc_ps, tmin_ps });
    }
    let at_zero = SensitivityPoint {
        a: 0.0,
        total_cin_ff: tmin_sizes.iter().sum(),
        sizes: tmin_sizes,
        delay_ps: tmin_ps,
    };
    if at_zero.delay_ps >= tc_ps * (1.0 - options.delay_tolerance) {
        // The constraint equals Tmin: return the minimum-delay sizing.
        return Ok(at_zero.into_solution(tc_ps, 0));
    }

    // Find a lower bracket: delay(a_lo) >= tc.
    let mut a_lo = -1.0;
    let mut lo_point = solve_for_sensitivity(lib, path, a_lo, options);
    let mut expansion = 0;
    while lo_point.delay_ps < tc_ps {
        a_lo *= 4.0;
        lo_point = solve_for_sensitivity(lib, path, a_lo, options);
        expansion += 1;
        if expansion > 60 {
            // All gates are pinned at minimum drive: delay can no longer
            // increase. The constraint is weaker than Tmax; the min-drive
            // sizing (= lo_point) satisfies it at the global minimum area.
            return Ok(lo_point.into_solution(tc_ps, expansion));
        }
    }

    // Bisection: delay(a) is decreasing in a (a ↑ 0 ⇒ bigger gates,
    // faster path). Only points meeting tc become `best`, starting from
    // the Tmin sizing at a = 0, in case no midpoint's solve meets tc.
    let mut hi = 0.0; // delay(hi) = Tmin <= tc
    let mut lo = a_lo; // delay(lo) >= tc
    let mut best = at_zero;
    let mut steps = 0;
    for _ in 0..options.max_bisections {
        steps += 1;
        let mid = 0.5 * (lo + hi);
        let p = solve_for_sensitivity(lib, path, mid, options);
        // Bisect on the sign of the achieved slack: non-negative is
        // feasible, so try to shrink further (more negative a).
        if tc_ps - p.delay_ps >= 0.0 {
            best = p;
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo).abs() < 1e-12 * (1.0 + lo.abs())
            || (best.delay_ps - tc_ps).abs() <= options.delay_tolerance * tc_ps
        {
            break;
        }
    }

    Ok(best.into_solution(tc_ps, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{delay_bounds, tmax};
    use pops_delay::PathStage;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn eleven_gate() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
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
            2.7,
            90.0,
        )
    }

    #[test]
    fn a_zero_reproduces_tmin() {
        let lib = lib();
        let path = eleven_gate();
        let p = solve_for_sensitivity(&lib, &path, 0.0, &SensitivityOptions::default());
        let b = delay_bounds(&lib, &path);
        let rel = (p.delay_ps - b.tmin_ps).abs() / b.tmin_ps;
        assert!(rel < 0.01, "a=0 delay {} vs tmin {}", p.delay_ps, b.tmin_ps);
    }

    #[test]
    fn delay_decreases_and_area_increases_toward_a_zero() {
        // Fig. 3: walking a from very negative to 0 trades area for speed.
        let lib = lib();
        let path = eleven_gate();
        let a_values = [-50.0, -10.0, -2.0, -0.5, -0.1, 0.0];
        let pts = design_space_sweep(&lib, &path, &a_values, &SensitivityOptions::default());
        for w in pts.windows(2) {
            assert!(
                w[1].delay_ps <= w[0].delay_ps + 1e-9,
                "delay should fall as a rises: {} -> {}",
                w[0].delay_ps,
                w[1].delay_ps
            );
            assert!(
                w[1].total_cin_ff >= w[0].total_cin_ff - 1e-9,
                "area should grow as a rises"
            );
        }
    }

    #[test]
    fn very_negative_a_recovers_min_drive_sizing() {
        let lib = lib();
        let path = eleven_gate();
        let p = solve_for_sensitivity(&lib, &path, -1e6, &SensitivityOptions::default());
        for (i, &s) in p.sizes.iter().enumerate().skip(1) {
            assert!(
                (s - lib.min_drive_ff()).abs() < 1e-6,
                "stage {i} should clamp at CREF, got {s}"
            );
        }
        assert!((p.delay_ps - tmax(&lib, &path)).abs() < 1e-6);
    }

    #[test]
    fn achieved_gradient_matches_a_in_unclamped_coordinates() {
        let lib = lib();
        let path = eleven_gate();
        let a = -0.8;
        let p = solve_for_sensitivity(&lib, &path, a, &SensitivityOptions::default());
        let grad = path.gradient(&lib, &p.sizes);
        for (i, g) in grad.iter().enumerate().skip(1) {
            if p.sizes[i] > lib.min_drive_ff() * 1.001 {
                let rel = (g - a).abs() / a.abs();
                assert!(rel < 0.02, "stage {i}: gradient {g} vs a {a} (rel {rel})");
            }
        }
    }

    #[test]
    fn constraint_is_met_at_reduced_area() {
        let lib = lib();
        let path = eleven_gate();
        let b = delay_bounds(&lib, &path);
        let tc = 1.2 * b.tmin_ps; // the paper's hard constraint
        let sol = distribute_constraint(&lib, &path, tc).unwrap();
        assert!(
            sol.delay_ps <= tc * 1.0001,
            "delay {} > tc {tc}",
            sol.delay_ps
        );
        // Strictly cheaper than the Tmin sizing.
        let tmin_area: f64 = b.tmin_sizes.iter().sum();
        assert!(
            sol.total_cin_ff < tmin_area,
            "area {} should undercut tmin area {tmin_area}",
            sol.total_cin_ff
        );
    }

    #[test]
    fn solution_slack_is_nonnegative_and_consistent() {
        let lib = lib();
        let path = eleven_gate();
        let b = delay_bounds(&lib, &path);
        for factor in [1.1, 1.5, 2.5] {
            let tc = factor * b.tmin_ps;
            let sol = distribute_constraint(&lib, &path, tc).unwrap();
            assert_eq!(sol.slack_ps, tc - sol.delay_ps, "slack bookkeeping");
            assert!(
                sol.slack_ps >= -1e-5 * tc,
                "achieved slack {} under tc {tc}",
                sol.slack_ps
            );
        }
    }

    #[test]
    fn infeasible_constraint_is_reported() {
        let lib = lib();
        let path = eleven_gate();
        let b = delay_bounds(&lib, &path);
        let err = distribute_constraint(&lib, &path, 0.8 * b.tmin_ps).unwrap_err();
        match err {
            OptimizeError::Infeasible { tc_ps, tmin_ps } => {
                assert!(tc_ps < tmin_ps);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn invalid_constraints_are_typed_errors() {
        let lib = lib();
        let path = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], 2.7, 30.0);
        for tc in [f64::NAN, 0.0, -1.0] {
            let err = distribute_constraint(&lib, &path, tc).unwrap_err();
            assert!(
                matches!(err, OptimizeError::InvalidConstraint { tc_ps } if tc_ps.to_bits() == tc.to_bits()),
                "tc {tc}: got {err}"
            );
        }
    }

    #[test]
    fn weak_constraint_returns_min_drives() {
        let lib = lib();
        let path = eleven_gate();
        let tc = tmax(&lib, &path) * 2.0;
        let sol = distribute_constraint(&lib, &path, tc).unwrap();
        for &s in sol.sizes.iter().skip(1) {
            assert!((s - lib.min_drive_ff()).abs() < 1e-6);
        }
    }

    #[test]
    fn tighter_constraints_cost_more_area() {
        let lib = lib();
        let path = eleven_gate();
        let b = delay_bounds(&lib, &path);
        let mut last_area = f64::INFINITY;
        for factor in [1.05, 1.2, 1.6, 2.2, 3.0] {
            let sol = distribute_constraint(&lib, &path, factor * b.tmin_ps).unwrap();
            assert!(
                sol.total_cin_ff <= last_area + 1e-9,
                "area must shrink as the constraint relaxes"
            );
            last_area = sol.total_cin_ff;
        }
    }

    #[test]
    fn solution_area_is_near_optimal_versus_random_feasible_probes() {
        // Provably-minimum-area claim (§3.2): no random feasible sizing
        // should undercut the solver's area by more than a whisker.
        let lib = lib();
        let path = eleven_gate();
        let b = delay_bounds(&lib, &path);
        let tc = 1.3 * b.tmin_ps;
        let sol = distribute_constraint(&lib, &path, tc).unwrap();
        let mut seed = 42u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut beaten = 0;
        for _ in 0..500 {
            let mut probe = sol.sizes.clone();
            for p in probe.iter_mut().skip(1) {
                *p = (*p * (0.5 + rand())).max(lib.min_drive_ff());
            }
            let d = path.delay(&lib, &probe).total_ps;
            let area: f64 = probe.iter().sum();
            if d <= tc && area < sol.total_cin_ff * 0.995 {
                beaten += 1;
            }
        }
        assert_eq!(beaten, 0, "random probes undercut the optimal area");
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_a_is_rejected() {
        let lib = lib();
        let path = eleven_gate();
        let _ = solve_for_sensitivity(&lib, &path, 0.5, &SensitivityOptions::default());
    }
}
