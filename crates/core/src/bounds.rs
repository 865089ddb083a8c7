//! Path delay bounds: `Tmax` and `Tmin` (§3.1, Figs. 1–2).
//!
//! * `Tmax` — the "pseudo-upper bound (at minimum area)": every gate at
//!   the minimum available drive.
//! * `Tmin` — the inferior bound, obtained by cancelling `∂T/∂C_IN(i)`
//!   for every interior gate: the eq. (4) link equations
//!   `C_IN(i) = √( (A_i/A_{i−1}) · C_IN(i−1) · C_L(i) )`,
//!   solved by the paper's iterative backward/forward sweeps from an
//!   initial solution seeded at `C_REF` (Fig. 1 shows the trajectory).
//!
//! `Tmin` is that fixed point and nothing else. The sweeps carry the
//! Miller-factor corrections, so the fixed point is a stationary point of
//! the full delay model. The sweeps converge linearly, and long paths stop
//! at the 200-sweep default budget short of it. Against `tmin_with` at
//! 50,000 sweeps and tolerance 1e-15 on the suite's critical paths, the
//! default `Tmin` sits above the converged fixed point by
//!
//! * 4.5e-4 relative on c6288 (7135.58 vs 7132.35 ps; the converged run
//!   took 10,362 sweeps),
//! * 3.9e-4 on adder16,
//! * 4.2e-5 on c5315,
//! * at most 3e-6 on c7552 and c1908.
//!
//! `tests/suite_regression.rs` holds a weaker band: six cycles of
//! golden-section coordinate search started from the result must lower
//! the delay by less than 5e-5 relative. That search also stops short of
//! the minimum, so the band bounds what it finds, not the distance to the
//! fixed point.

use pops_delay::{Library, TimedPath};

use crate::gradient::sweep_links;

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
    /// Per-sweep trajectory (for Fig. 1).
    pub trace: Vec<TminIteration>,
    /// Sweeps used.
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

/// Options for the `Tmin` iteration: `Tmin` is the eq. (4) link-equation
/// fixed point within this sweep budget (module docs state its band).
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

/// `Tmin` with default options.
pub fn tmin(lib: &Library, path: &TimedPath) -> TminResult {
    tmin_with(lib, path, &TminOptions::default())
}

/// `Tmin` via the paper's iterative link-equation sweeps (eq. 4).
///
/// Every sweep recomputes the `A_i` coefficients at the current operating
/// point, applies
/// `C_IN(i) ← √((A_i/A_{i−1}) · C_IN(i−1) · C_L(i))` forward over the
/// interior stages, and records the (`ΣC_IN/C_REF`, delay) pair. The
/// paper's observation that "the final value Tmin is conserved whatever
/// is the initial solution, ie the C_REF value" is covered by tests.
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
        0.0,
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
mod tests {
    use super::*;
    use pops_delay::PathStage;
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
        let r = tmin(&lib, &path);
        assert!(r.trace.len() >= 3);
        // Final recorded delay equals the reported Tmin.
        let last = r.trace.last().unwrap();
        assert!((last.delay_ps - r.delay_ps).abs() < 1e-9);
        // The trace ends strictly better than it starts (Fig. 1's descent).
        assert!(r.trace[0].delay_ps > r.delay_ps);
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
