//! Path delay bounds: `Tmax` and `Tmin` (§3.1, Figs. 1–2).
//!
//! * `Tmax` — the "pseudo-upper bound (at minimum area)": every gate at
//!   the minimum available drive.
//! * `Tmin` — the inferior bound, obtained by cancelling `∂T/∂C_IN(i)`
//!   for every interior gate: the fixed point of the eq. (4) link
//!   equations `C_IN(i) = √( (A_i/A_{i−1}) · C_IN(i−1) · C_L(i) )`,
//!   started from an initial solution seeded at `C_REF`.
//!
//! Two solvers reach that fixed point. Both carry the Miller-factor
//! derivatives, so it is a stationary point of the full delay model.
//!
//! * [`tmin`] solves it exactly: Newton on `∂T/∂C_IN = 0` with the
//!   exact tridiagonal Hessian of the link decomposition
//!   ([`crate::gradient`]), one Thomas solve per iteration. On the suite's
//!   critical paths it takes 15–27 iterations and lands within 4e-16
//!   relative of `tmin_with` run to 100,000 sweeps at tolerance 1e-15.
//!   This is the `Tmin` of [`delay_bounds`], the protocol, buffer
//!   insertion and restructuring. It is the `a = 0` end of the
//!   constant-sensitivity curve, which [`crate::sensitivity`] solves
//!   with the same iteration at `a < 0`.
//! * [`tmin_with`] runs the paper's iterative sweeps and records their
//!   trajectory, the data of Fig. 1. The sweeps converge linearly: on
//!   c6288's critical path they need about 10,000 sweeps to reach the
//!   fixed point, so the 200-sweep default stops short of it on long
//!   paths.

use pops_delay::{Library, TimedPath};

use crate::gradient::{newton_links, sweep_links};

/// One recorded sweep of the `Tmin` iteration (the data behind Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TminIteration {
    /// `Σ C_IN / C_REF` after this sweep (Fig. 1's x-axis).
    pub total_cin_over_cref: f64,
    /// Path delay after this sweep (ps).
    pub delay_ps: f64,
}

/// Result of the `Tmin` search.
#[derive(Debug, Clone, PartialEq)]
pub struct TminResult {
    /// Sizing achieving the minimum delay.
    pub sizes: Vec<f64>,
    /// The minimum path delay (ps).
    pub delay_ps: f64,
    /// Per-sweep trajectory of [`tmin_with`], the start point first
    /// (Fig. 1); empty from [`tmin`], whose callers never read one.
    pub trace: Vec<TminIteration>,
    /// Work done: link-equation sweeps from [`tmin_with`], Newton
    /// iterations from [`tmin`] (at least 1 either way).
    pub iterations: usize,
}

/// Both delay bounds of a path.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBounds {
    /// Minimum achievable delay (ps).
    pub tmin_ps: f64,
    /// Delay with every gate at minimum drive (ps).
    pub tmax_ps: f64,
    /// Sizing achieving `tmin_ps`.
    pub tmin_sizes: Vec<f64>,
}

/// Options for [`tmin_with`], the paper's `Tmin` sweeps: it stops at the
/// eq. (4) fixed point or at this sweep budget, whichever comes first.
#[derive(Debug, Clone, PartialEq)]
pub struct TminOptions {
    /// Initial interior sizing (fF); the paper seeds with `C_REF`.
    pub start_cin_ff: Option<f64>,
    /// Maximum number of sweeps.
    pub max_sweeps: usize,
    /// Relative convergence tolerance on sizes.
    pub tolerance: f64,
}

impl Default for TminOptions {
    fn default() -> Self {
        TminOptions {
            start_cin_ff: None,
            max_sweeps: 200,
            tolerance: 1e-10,
        }
    }
}

/// `Tmax`: path delay with all gates at minimum drive.
pub fn tmax(lib: &Library, path: &TimedPath) -> f64 {
    let sizes = path.min_sizes(lib);
    path.delay(lib, &sizes).total_ps
}

/// `Tmin`: the eq. (4) link-equation fixed point, solved exactly.
///
/// Newton on `∂T/∂C_IN = 0` from the `C_REF` start, one tridiagonal
/// solve per iteration (module docs). `trace` stays empty and
/// `iterations` counts Newton iterations; [`tmin_with`] runs the paper's
/// sweeps and records Fig. 1's trajectory.
pub fn tmin(lib: &Library, path: &TimedPath) -> TminResult {
    let mut sizes = path.min_sizes(lib);
    let iterations = newton_links(lib, path, 0.0, &mut sizes).iterations;
    let delay_ps = path.delay(lib, &sizes).total_ps;
    TminResult {
        sizes,
        delay_ps,
        trace: Vec::new(),
        iterations,
    }
}

/// `Tmin` via the paper's iterative link-equation sweeps (eq. 4), the
/// Fig. 1 trajectory.
///
/// Every sweep recomputes the `A_i` coefficients at the current operating
/// point, applies
/// `C_IN(i) ← √((A_i/A_{i−1}) · C_IN(i−1) · C_L(i))` forward over the
/// interior stages, and records the (`ΣC_IN/C_REF`, delay) pair. The
/// paper's observation that "the final value Tmin is conserved whatever
/// is the initial solution, ie the C_REF value" is covered by tests.
/// Within the default budget the result can sit above the exact [`tmin`]
/// on long paths (module docs).
pub fn tmin_with(lib: &Library, path: &TimedPath, options: &TminOptions) -> TminResult {
    let cref = lib.min_drive_ff();
    let mut sizes = path.min_sizes(lib);
    if let Some(start) = options.start_cin_ff {
        assert!(start > 0.0, "start size must be positive");
        for s in sizes.iter_mut().skip(1) {
            *s = start;
        }
    }

    let mut trace = Vec::new();
    let mut record = |sizes: &[f64]| {
        trace.push(TminIteration {
            total_cin_over_cref: sizes.iter().sum::<f64>() / cref,
            delay_ps: path.delay(lib, sizes).total_ps,
        })
    };
    record(&sizes);
    let iterations = sweep_links(
        lib,
        path,
        &mut sizes,
        options.max_sweeps,
        options.tolerance,
        &mut record,
    );

    let delay_ps = path.delay(lib, &sizes).total_ps;
    TminResult {
        sizes,
        delay_ps,
        trace,
        iterations,
    }
}

/// Compute both bounds.
pub fn delay_bounds(lib: &Library, path: &TimedPath) -> DelayBounds {
    let t = tmin(lib, path);
    DelayBounds {
        tmin_ps: t.delay_ps,
        tmax_ps: tmax(lib, path),
        tmin_sizes: t.sizes,
    }
}

/// Golden-section minimization of a unimodal scalar function on
/// `[lo, hi]`, returning the argmin.
///
/// Exposed because several harness experiments need 1-D searches over
/// the same convex delay landscapes the optimizers exploit.
///
/// # Example
///
/// ```
/// let x = pops_core::bounds::golden_min(|x| (x - 2.0_f64).powi(2), 0.0, 10.0);
/// assert!((x - 2.0).abs() < 1e-6);
/// ```
pub fn golden_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..80 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        if (b - a).abs() < 1e-9 * (1.0 + b.abs()) {
            break;
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gradient::{analytic_gradient, NEWTON_MAX_ITERATIONS};
    use pops_delay::{Edge, PathStage};
    use pops_netlist::cell::ALL_CELLS;
    use pops_netlist::rng::SplitMix64;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn chain(n: usize, terminal: f64) -> TimedPath {
        TimedPath::new(
            vec![PathStage::new(CellKind::Inv); n],
            Library::cmos025().min_drive_ff(),
            terminal,
        )
    }

    fn mixed() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::with_load(Nand2, 6.0),
                PathStage::new(Nor2),
                PathStage::new(Inv),
                PathStage::with_load(Nand3, 10.0),
                PathStage::new(Inv),
            ],
            2.7,
            120.0,
        )
    }

    #[test]
    fn tmin_below_tmax() {
        let lib = lib();
        for path in [chain(5, 200.0), mixed()] {
            let b = delay_bounds(&lib, &path);
            assert!(
                b.tmin_ps < b.tmax_ps,
                "tmin {} !< tmax {}",
                b.tmin_ps,
                b.tmax_ps
            );
        }
    }

    #[test]
    fn tmin_is_independent_of_the_start_point() {
        // The paper: "the final value Tmin is conserved whatever is the
        // initial solution, ie the CREF value".
        let lib = lib();
        let path = mixed();
        let mut results = Vec::new();
        for start in [2.7, 10.0, 40.0, 120.0] {
            let r = tmin_with(
                &lib,
                &path,
                &TminOptions {
                    start_cin_ff: Some(start),
                    ..Default::default()
                },
            );
            results.push(r.delay_ps);
        }
        for w in results.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-3 * w[0],
                "Tmin differs across starts: {results:?}"
            );
        }
    }

    #[test]
    fn tmin_gradient_vanishes_in_the_interior() {
        let lib = lib();
        let path = mixed();
        let r = tmin(&lib, &path);
        let grad = path.gradient(&lib, &r.sizes);
        // Scale: compare against the gradient magnitude at min sizes.
        let ref_grad = path
            .gradient(&lib, &path.min_sizes(&lib))
            .iter()
            .map(|g| g.abs())
            .fold(0.0f64, f64::max);
        for (i, g) in grad.iter().enumerate().skip(1) {
            // Clamped-at-CREF coordinates may keep positive gradient.
            if r.sizes[i] > lib.min_drive_ff() * 1.001 {
                assert!(
                    g.abs() < 0.02 * ref_grad,
                    "stage {i} gradient {g} (ref {ref_grad})"
                );
            }
        }
    }

    #[test]
    fn no_random_probe_beats_tmin() {
        let lib = lib();
        let path = mixed();
        let r = tmin(&lib, &path);
        // Deterministic pseudo-random probes around the optimum.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let mut probe = r.sizes.clone();
            for p in probe.iter_mut().skip(1) {
                *p = (*p * (0.25 + 3.0 * rand())).max(lib.min_drive_ff());
            }
            let d = path.delay(&lib, &probe).total_ps;
            assert!(d >= r.delay_ps - 1e-6, "probe {d} < tmin {}", r.delay_ps);
        }
    }

    #[test]
    fn trace_is_recorded_and_delay_monotonically_improves_late() {
        let lib = lib();
        let path = chain(7, 400.0);
        let r = tmin_with(&lib, &path, &TminOptions::default());
        assert!(r.trace.len() >= 3);
        // Final recorded delay equals the reported Tmin.
        let last = r.trace.last().unwrap();
        assert!((last.delay_ps - r.delay_ps).abs() < 1e-9);
        // The trace ends strictly better than it starts (Fig. 1's descent).
        assert!(r.trace[0].delay_ps > r.delay_ps);
    }

    /// Random bounded path: 1 to `max_stages` stages of any cell, off-path
    /// loads of 0–400 fF on about half of them, a source drive of
    /// 1–4·`C_REF`, a terminal load of 0.5–800 fF, either input edge.
    pub(crate) fn random_path(rng: &mut SplitMix64, max_stages: usize) -> TimedPath {
        let n = 1 + rng.below(max_stages);
        let stages = (0..n)
            .map(|_| {
                let load = if rng.chance(0.5) {
                    rng.uniform(0.0, 400.0)
                } else {
                    0.0
                };
                PathStage::with_load(*rng.pick(&ALL_CELLS), load)
            })
            .collect();
        let source = rng.uniform(1.0, 4.0) * lib().min_drive_ff();
        let edge = if rng.chance(0.5) {
            Edge::Rising
        } else {
            Edge::Falling
        };
        TimedPath::new(stages, source, rng.uniform(0.5, 800.0))
            .with_input_conditions(edge, rng.uniform(0.0, 150.0))
    }

    #[test]
    fn newton_tmin_is_the_exact_fixed_point_on_random_paths() {
        let lib = lib();
        let cref = lib.min_drive_ff();
        let mut rng = SplitMix64::new(0x7A11_0017);
        for case in 0..400 {
            let path = random_path(&mut rng, 130);
            let r = tmin(&lib, &path);
            assert!(
                r.iterations < NEWTON_MAX_ITERATIONS,
                "path {case}: {} iterations",
                r.iterations
            );
            let swept = tmin_with(&lib, &path, &TminOptions::default());
            assert!(
                r.delay_ps <= swept.delay_ps * (1.0 + 1e-12),
                "path {case}: Tmin {} above the 200-sweep {}",
                r.delay_ps,
                swept.delay_ps
            );
            // First-order conditions against the gradient's scale at the
            // minimum sizes: zero on free stages, non-negative on the bound.
            let scale = analytic_gradient(&lib, &path, &path.min_sizes(&lib))
                .iter()
                .skip(1)
                .fold(0.0f64, |m, g| m.max(g.abs()));
            let grad = analytic_gradient(&lib, &path, &r.sizes);
            for (i, (&g, &c)) in grad.iter().zip(&r.sizes).enumerate().skip(1) {
                if c > cref {
                    assert!(
                        g.abs() <= 1e-9 * scale,
                        "path {case} stage {i}: gradient {g} (scale {scale})"
                    );
                } else {
                    assert!(
                        g >= -1e-9 * scale,
                        "path {case} stage {i} at C_REF: gradient {g} (scale {scale})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_gate_path_has_equal_bounds() {
        let lib = lib();
        let path = chain(1, 50.0);
        let b = delay_bounds(&lib, &path);
        assert!((b.tmin_ps - b.tmax_ps).abs() < 1e-9);
    }

    #[test]
    fn heavier_terminal_load_raises_tmin() {
        let lib = lib();
        let light = delay_bounds(&lib, &chain(5, 50.0));
        let heavy = delay_bounds(&lib, &chain(5, 500.0));
        assert!(heavy.tmin_ps > light.tmin_ps);
    }

    #[test]
    fn golden_min_finds_parabola_vertex() {
        let x = golden_min(|x| (x - 3.25) * (x - 3.25), 0.0, 10.0);
        assert!((x - 3.25).abs() < 1e-6);
    }

    #[test]
    fn tmin_sizes_taper_toward_a_heavy_load() {
        // Classic tapered-buffer shape: monotone increasing sizes.
        let lib = lib();
        let path = chain(4, 600.0);
        let r = tmin(&lib, &path);
        for w in r.sizes.windows(2) {
            assert!(w[1] > w[0], "sizes should taper up: {:?}", r.sizes);
        }
    }
}
