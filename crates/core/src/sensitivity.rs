//! The constant sensitivity method (§3.2, eq. 5–6, Figs. 3–4).
//!
//! Instead of giving every stage the same delay (Sutherland) the paper
//! imposes the same *sensitivity* on every sizing variable:
//! `∂T/∂C_IN(i) = a ≤ 0`. These are the first-order conditions of minimum
//! `ΣC_IN` under a delay constraint, `−1/a` being the constraint's
//! multiplier, so each value of `a` picks one point on the area/delay
//! Pareto front (`a = 0` is `Tmin`; `a → −∞` collapses to minimum drives,
//! i.e. `Tmax`), and a constraint is met at minimum area by a search on
//! the scalar `a`: "few iterations on the `a` value".
//!
//! # Exact solves, Newton on `a`
//!
//! Each point of the curve is solved exactly, by the link equations'
//! Newton iteration ([`crate::gradient`]) that also solves `Tmin` at
//! `a = 0`. Besides the sizes it returns `Σy` over the free stages (those
//! not held at `C_REF`), with `H·y = 1`, so the curve's slope
//! `dT/da = a·Σy` comes with every solve. Near `a = 0`,
//! `T − Tmin ≈ a²·Σy₀/2`: against `log(−a)`, `log(T − Tmin)` starts with
//! slope 2, and its slope is `a²·Σy/(T − Tmin)` everywhere.
//! [`distribute_constraint`]:
//!
//! 1. returns the `Tmin` sizing when `Tmin` is within the delay tolerance
//!    of `tc`, and the minimum drives when they meet `tc`;
//! 2. starts at `a₀ = −√(2·(tc − Tmin)/Σy₀)`, with `Σy₀` taken at the
//!    `Tmin` sizing, and from there takes Newton steps on
//!    `log(T − Tmin)` against `log(−a)`, each solve warm-started from the
//!    previous sizes;
//! 3. keeps a bracket, the last `a` that met `tc` and the last that
//!    missed it, starting from `0` and from the `a` below which the
//!    minimum drives solve the equations, and bisects inside it when a
//!    step leaves it;
//! 4. aims at the middle of the window `tc·(1 − delay_tolerance) ≤ T ≤ tc`
//!    (the exact optimum sits at `T = tc`) and stops at the first sizing
//!    inside it.
//!
//! Every returned sizing meets `tc`. On 1,000 seeded random paths of 1–130
//! stages at tc from 1.0005 to 3·Tmin the search takes 3.9 outer steps and
//! 31 Newton iterations per call.

use pops_delay::{Library, TimedPath};

use crate::bounds::tmin;
use crate::error::OptimizeError;
use crate::gradient::{analytic_gradient, newton_links};

/// Options for the constraint distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityOptions {
    /// Acceptable relative delay error versus the constraint: the search
    /// stops at the first sizing with
    /// `tc·(1 − delay_tolerance) ≤ delay ≤ tc`.
    pub delay_tolerance: f64,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        SensitivityOptions {
            delay_tolerance: 1e-5,
        }
    }
}

/// Outer steps of the search on `a` before it returns its best sizing
/// meeting the constraint; seeded random paths need at most 6.
const MAX_OUTER_STEPS: usize = 64;

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
    fn new(a: f64, sizes: Vec<f64>, delay_ps: f64) -> SensitivityPoint {
        SensitivityPoint {
            a,
            total_cin_ff: sizes.iter().sum(),
            sizes,
            delay_ps,
        }
    }

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
    /// Achieved delay (ps), ≤ the constraint.
    pub delay_ps: f64,
    /// Achieved slack `tc − delay` (ps) — what a slack-driven caller
    /// (the circuit flow sizing against per-endpoint required times)
    /// reads back; ≥ 0.
    pub slack_ps: f64,
    /// Total input capacitance (fF).
    pub total_cin_ff: f64,
    /// Outer steps of the search on `a`: the values of `a` solved for
    /// (0 when the `Tmin` sizing or the minimum drives are returned).
    pub bisections: usize,
}

/// Solve the equal-sensitivity system for a given `a ≤ 0` (eq. 6)
/// exactly, by the link equations' Newton iteration from the minimum
/// drives. At `a = 0` this is [`tmin`]'s solve.
///
/// # Panics
///
/// Panics if `a > 0` (positive sensitivities have no solution on a
/// bounded path: the delay would have to *decrease* with extra area).
pub fn solve_for_sensitivity(lib: &Library, path: &TimedPath, a: f64) -> SensitivityPoint {
    assert!(a <= 0.0, "the sensitivity coefficient must be non-positive");
    let mut sizes = path.min_sizes(lib);
    newton_links(lib, path, a, &mut sizes);
    let delay_ps = path.delay(lib, &sizes).total_ps;
    SensitivityPoint::new(a, sizes, delay_ps)
}

/// Sweep the design space over a list of `a` values (Fig. 3's curve).
pub fn design_space_sweep(
    lib: &Library,
    path: &TimedPath,
    a_values: &[f64],
) -> Vec<SensitivityPoint> {
    a_values
        .iter()
        .map(|&a| solve_for_sensitivity(lib, path, a))
        .collect()
}

/// Distribute a delay constraint on the path at minimum area (eq. 5–6).
///
/// Searches `a ≤ 0` by safeguarded Newton steps (module docs): `a = 0`
/// gives `Tmin`; decreasing `a` shrinks every gate (less area, more
/// delay) until the constraint is met. "Few iterations on the `a` value
/// allows a quick satisfaction of the delay constraint."
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
/// sizing), the search's `a = 0` end; infeasible exactly when
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
    let tolerance = options.delay_tolerance * tc_ps;
    if tmin_ps >= tc_ps - tolerance {
        // The constraint equals Tmin: return the minimum-delay sizing.
        return Ok(SensitivityPoint::new(0.0, tmin_sizes, tmin_ps).into_solution(tc_ps, 0));
    }
    // Below the smallest interior gradient at the minimum drives, they
    // solve the equations: the search's lower end.
    let min_sizes = path.min_sizes(lib);
    let floor = analytic_gradient(lib, path, &min_sizes)
        .into_iter()
        .skip(1)
        .fold(0.0, f64::min);
    let tmax_ps = path.delay(lib, &min_sizes).total_ps;
    if tmax_ps <= tc_ps {
        // The constraint is weaker than Tmax: the minimum drives meet it
        // at the global minimum area.
        return Ok(SensitivityPoint::new(floor, min_sizes, tmax_ps).into_solution(tc_ps, 0));
    }

    // Σy₀ at the Tmin sizing, which the solve at a = 0 moves only by
    // rounding.
    let mut sizes = tmin_sizes.clone();
    let unit_sum = newton_links(lib, path, 0.0, &mut sizes).unit_sum;
    // The `T − Tmin` aimed at: the middle of the acceptance window.
    let excess_goal = tc_ps - 0.5 * tolerance - tmin_ps;
    let mut next = -(2.0 * excess_goal / unit_sum).sqrt();
    // `meet` is the last point that met tc (the Tmin sizing at a = 0 to
    // begin with), `miss` the last `a` that missed it.
    let mut meet = SensitivityPoint::new(0.0, tmin_sizes, tmin_ps);
    let mut miss = floor;
    let mut steps = 0;
    while steps < MAX_OUTER_STEPS {
        let inside = |a: f64| a > miss && a < meet.a;
        let a = if inside(next) {
            next
        } else {
            0.5 * (miss + meet.a)
        };
        if !inside(a) {
            break; // the bracket has collapsed to rounding
        }
        steps += 1;
        let unit_sum = newton_links(lib, path, a, &mut sizes).unit_sum;
        let delay_ps = path.delay(lib, &sizes).total_ps;
        if delay_ps <= tc_ps {
            meet = SensitivityPoint::new(a, sizes.clone(), delay_ps);
            if tc_ps - delay_ps <= tolerance {
                break;
            }
        } else {
            miss = a;
        }
        // Newton on log(T − Tmin) against log(−a), whose slope is
        // a²·Σy/(T − Tmin). A step that is not finite (T at Tmin to
        // rounding, every stage held) falls outside the bracket and
        // bisects.
        let excess = delay_ps - tmin_ps;
        next = a * ((excess_goal.ln() - excess.ln()) * excess / (a * a * unit_sum)).exp();
    }
    Ok(meet.into_solution(tc_ps, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::tests::random_path;
    use crate::bounds::{delay_bounds, tmax};
    use pops_delay::PathStage;
    use pops_netlist::rng::SplitMix64;
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
        let p = solve_for_sensitivity(&lib, &path, 0.0);
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
        let pts = design_space_sweep(&lib, &path, &a_values);
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
        let p = solve_for_sensitivity(&lib, &path, -1e6);
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
        let p = solve_for_sensitivity(&lib, &path, a);
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
    fn distributions_meet_tc_in_the_window_below_the_tmin_area() {
        // On 400 random paths, from just above Tmin to 3·Tmin: the delay
        // meets tc inside the tolerance window (unless every stage sits at
        // C_REF), the first-order conditions hold (gradient a on free
        // stages, at least a on held ones, within 1e-9 of the gradient's
        // scale), and a path with a stage above C_REF at Tmin gets less
        // area than the Tmin sizing.
        let lib = lib();
        let cref = lib.min_drive_ff();
        let tolerance = SensitivityOptions::default().delay_tolerance;
        let mut rng = SplitMix64::new(0x5E_1002);
        for case in 0..400 {
            let path = random_path(&mut rng, 130);
            let t = tmin(&lib, &path);
            let tmin_area: f64 = t.sizes.iter().sum();
            let free_at_tmin = t.sizes.iter().skip(1).any(|&c| c > cref);
            let scale = analytic_gradient(&lib, &path, &path.min_sizes(&lib))
                .iter()
                .skip(1)
                .fold(0.0f64, |m, g| m.max(g.abs()));
            for factor in [1.0005, 1.001, 1.01, 1.3, 3.0] {
                let tc = factor * t.delay_ps;
                let label = format!("path {case} at {factor}·Tmin");
                let sol = distribute_constraint(&lib, &path, tc).unwrap();
                assert!(
                    sol.delay_ps <= tc,
                    "{label}: delay {} > tc {tc}",
                    sol.delay_ps
                );
                let all_min = sol.sizes.iter().skip(1).all(|&c| c <= cref);
                assert!(
                    all_min || tc - sol.delay_ps <= tolerance * tc,
                    "{label}: delay {} below the window under tc {tc}",
                    sol.delay_ps
                );
                assert!(
                    !free_at_tmin || sol.total_cin_ff < tmin_area,
                    "{label}: area {} not below the Tmin sizing's {tmin_area}",
                    sol.total_cin_ff
                );
                let grad = analytic_gradient(&lib, &path, &sol.sizes);
                for (i, (&g, &c)) in grad.iter().zip(&sol.sizes).enumerate().skip(1) {
                    if c > cref {
                        assert!(
                            (g - sol.a).abs() <= 1e-9 * scale,
                            "{label} stage {i}: gradient {g} vs a {} (scale {scale})",
                            sol.a
                        );
                    } else {
                        assert!(
                            g >= sol.a - 1e-9 * scale,
                            "{label} stage {i} at C_REF: gradient {g} below a {}",
                            sol.a
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_a_is_rejected() {
        let lib = lib();
        let path = eleven_gate();
        let _ = solve_for_sensitivity(&lib, &path, 0.5);
    }
}
