//! Operating-point coefficients `A_i`, the analytic path gradient and the
//! two link-equation solvers built on them: the paper's sweep, kept for
//! Fig. 1's trajectory, and the exact Newton iteration every other solve
//! runs.
//!
//! Eq. (4) of the paper writes the stationarity condition through
//! per-stage "design parameters involved in (1,2)" called `A_i`. Under the
//! reconstructed model, the delay terms that involve the ratio
//! `C_L(i)/C_IN(i)` are:
//!
//! * stage `i`'s own load term `½·M_i·τ_out(i)` (Miller factor `M_i`), and
//! * stage `i+1`'s slope term `½·v_T(i+1)·τ_in(i+1)`, because
//!   `τ_in(i+1) = τ_out(i)`.
//!
//! Hence `A_i = τ·S_i·(M_i + v_T(i+1))/2`, with `v_T(n) = 0` past the last
//! stage, `S_i` the symmetry factor of stage i's output edge and `M_i`
//! evaluated (frozen) at the current operating point. The frozen-`A`
//! gradient
//!
//! ```text
//! ∂T/∂C_IN(i) ≈ A_{i−1}/C_IN(i−1) − A_i·C_L(i)/C_IN(i)²
//! ```
//!
//! is exact up to the derivative of the Miller factor (a few percent);
//! the sweeps re-freeze coefficients every sweep and add the Miller
//! corrections, so their fixed points satisfy the *exact* first-order
//! conditions, which the Newton iteration solves directly.
//!
//! # Per-stage constants
//!
//! Everything about stage `j` except its size and load is fixed by its
//! cell and edges, so each solve computes it once:
//!
//! * `K_j = τ·S_j/2`;
//! * `c1_j = 1 + v_T(j+1)`, with `v_T` = 0 past the last stage;
//! * `β_j = C_M/C_IN` for stage j's input edge;
//! * `q_j = β_j + C_par/C_IN`.
//!
//! With the stage's off-path load `off_j`, read from the path, these are
//! all the sweep, the Newton solver and [`analytic_gradient`] need.
//!
//! # The delay as a sum over links
//!
//! With `M_j = 1 + 2β_j·x/(q_j·x + z)`, the terms of `T` that move with
//! the sizes regroup, up to a constant, into one term per stage:
//!
//! ```text
//! T(C) = Σ_j F_j(C_j, C_{j+1}),
//! F_j(x, y) = K_j·[ c1_j·z/x − 2β_j²·x/(q_j·x + z) ],   z = off_j + y,
//! ```
//!
//! where `y` past the last stage is the terminal load. The gradient is
//! `∂T/∂C_i = ∂F_{i−1}/∂y + ∂F_i/∂x` ([`analytic_gradient`]), and the
//! Hessian `H` is tridiagonal: its diagonal is
//! `∂²F_{i−1}/∂y² + ∂²F_i/∂x²`, its off-diagonal `∂²F_i/∂x∂y`.
//!
//! # Newton on `∂T/∂C_IN = a`
//!
//! One Newton step on the link equations `∂T/∂C_IN(i) = a` is therefore
//! one tridiagonal (Thomas) solve, `H·δ = −(g − a)`, with a stage held at
//! `C_REF` while its gradient exceeds `a`. At `a = 0` this is eq. (4),
//! how [`crate::bounds::tmin`] reaches the fixed point exactly; below 0
//! it is eq. (6), each point of the constant-sensitivity curve that
//! [`crate::sensitivity`] searches. One more substitution on the last
//! factorization solves `H·y = 1` over the free stages: differentiating
//! `g(C(a)) = a` gives `dC/da = y` there (0 on held stages), so the
//! solution curve's slopes are `dΣC_IN/da = Σy` and `dT/da = a·Σy`, which
//! the distribution's Newton step on `a` uses.

use pops_delay::model::Edge;
use pops_delay::{CellTiming, Library, TimedPath};

/// Operating-point data for a sized path.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// `A_i` coefficient per stage (ps·fF/fF — multiplies `C_L/C_IN`).
    pub a: Vec<f64>,
    /// External load `C_L(i)` (fF) per stage: off-path + downstream pin.
    pub load_ext: Vec<f64>,
    /// Miller correction carried upstream: `∂(delay_i)/∂C_L(i)` beyond
    /// the `A_i` term — the Miller factor *shrinks* as the load grows
    /// (ps/fF, ≤ 0).
    pub up_corr: Vec<f64>,
    /// Own Miller correction: `∂(delay_i)/∂C_IN(i)` through the growth
    /// of `C_M` with the gate size (ps/fF, ≥ 0).
    pub own_corr: Vec<f64>,
}

/// The constants of one stage (module docs), computed once per solve.
#[derive(Debug, Clone, Copy)]
struct LinkStage {
    cell: CellTiming,
    in_edge: Edge,
    /// `τ·S_j` (ps): `2·K_j`.
    tau_s: f64,
    /// `v_T(j+1)`: `c1_j − 1`.
    vt_next: f64,
    /// `β_j`.
    beta: f64,
    /// `q_j`.
    q: f64,
}

/// One stage's operating-point coefficients (one entry of
/// [`OperatingPoint`]).
#[derive(Debug, Clone, Copy)]
struct StagePoint {
    a: f64,
    load: f64,
    up_corr: f64,
    own_corr: f64,
}

/// `F_j` and its partial derivatives at one `(x, y)`.
#[derive(Debug, Clone, Copy)]
struct LinkPartials {
    fx: f64,
    fy: f64,
    fxx: f64,
    fyy: f64,
    fxy: f64,
}

/// A path's link equations: the path and its per-stage constants.
struct Links<'a> {
    path: &'a TimedPath,
    stages: Vec<LinkStage>,
}

impl<'a> Links<'a> {
    fn new(lib: &Library, path: &'a TimedPath) -> Links<'a> {
        let process = lib.process();
        let n = path.len();
        let mut edge = path.input_edge();
        let stages = path
            .stages()
            .iter()
            .enumerate()
            .map(|(j, stage)| {
                let cell = *lib.cell(stage.cell);
                let in_edge = edge;
                edge = edge.through(stage.cell);
                let vt_next = if j + 1 < n {
                    match edge {
                        Edge::Rising => process.vtn_reduced(),
                        Edge::Falling => process.vtp_reduced(),
                    }
                } else {
                    0.0
                };
                let beta = cell.miller_ff(1.0, in_edge);
                LinkStage {
                    cell,
                    in_edge,
                    tau_s: process.tau_ps * cell.s_factor(process, edge),
                    vt_next,
                    beta,
                    q: beta + cell.cpar_factor,
                }
            })
            .collect();
        Links { path, stages }
    }

    /// Stage `j`'s `A_j`, load and Miller corrections at `sizes`.
    fn point(&self, j: usize, sizes: &[f64]) -> StagePoint {
        let st = &self.stages[j];
        let cl_ext = self.path.stage_load_ff(j, sizes);
        let c = sizes[j];
        let cl_tot = st.cell.cpar_ff(c) + cl_ext;
        let cm = st.cell.miller_ff(c, st.in_edge);
        let miller = 1.0 + 2.0 * cm / (cm + cl_tot);
        let tau_out = st.tau_s * cl_tot / c;
        // ∂m/∂C_L = −2·C_M/(C_M + C_Ltot)²; delay term is ½·m·τ_out.
        let dm_dcl = -2.0 * cm / ((cm + cl_tot) * (cm + cl_tot));
        // C_M = β·c, C_Ltot = p·c + C_L: dm/dc = 2·β·C_L/(βc + pc + C_L)².
        let beta = cm / c;
        let denom = beta * c + st.cell.cpar_factor * c + cl_ext;
        let dm_dc = 2.0 * beta * cl_ext / (denom * denom);
        StagePoint {
            a: st.tau_s * (miller + st.vt_next) / 2.0,
            load: cl_ext,
            up_corr: 0.5 * dm_dcl * tau_out,
            own_corr: 0.5 * dm_dc * tau_out,
        }
    }

    /// `F_j` and its partials at `x = C_j` and `y = C_{j+1}` (the terminal
    /// load past the last stage).
    fn partials(&self, j: usize, sizes: &[f64]) -> LinkPartials {
        let st = &self.stages[j];
        let x = sizes[j];
        let z = self.path.stage_load_ff(j, sizes);
        let k = 0.5 * st.tau_s;
        let c1 = 1.0 + st.vt_next;
        let two_b2 = 2.0 * st.beta * st.beta;
        let ix = 1.0 / x;
        let id = 1.0 / (st.q * x + z);
        let id2 = id * id;
        let id3 = id2 * id;
        LinkPartials {
            fx: -k * (c1 * z * ix * ix + two_b2 * z * id2),
            fy: k * (c1 * ix + two_b2 * x * id2),
            fxx: k * (2.0 * c1 * z * ix * ix * ix + 2.0 * two_b2 * st.q * z * id3),
            fyy: -2.0 * k * two_b2 * x * id3,
            fxy: k * (two_b2 * (z - st.q * x) * id3 - c1 * ix * ix),
        }
    }
}

/// Compute the `A_i` coefficients, loads, and Miller correction terms at
/// the sizing `sizes`.
///
/// # Panics
///
/// Panics if `sizes.len() != path.len()`.
pub fn operating_point(lib: &Library, path: &TimedPath, sizes: &[f64]) -> OperatingPoint {
    assert_eq!(sizes.len(), path.len(), "one size per stage");
    let links = Links::new(lib, path);
    let n = path.len();
    let mut op = OperatingPoint {
        a: Vec::with_capacity(n),
        load_ext: Vec::with_capacity(n),
        up_corr: Vec::with_capacity(n),
        own_corr: Vec::with_capacity(n),
    };
    for j in 0..n {
        let p = links.point(j, sizes);
        op.a.push(p.a);
        op.load_ext.push(p.load);
        op.up_corr.push(p.up_corr);
        op.own_corr.push(p.own_corr);
    }
    op
}

/// Sweep the link equations `∂T/∂C_IN(i) = 0` (eq. 4) in place from
/// `sizes` until no size moves by `tolerance` relative or `max_sweeps`
/// ran; returns the sweeps run. Each sweep freezes the coefficients at the
/// current sizing, applies
/// `C_IN(i) ← √( A_i·C_L(i) / (A_{i−1}/C_IN(i−1)) )` forward over the
/// interior stages (clamped at the minimum drive) and calls `after_sweep`.
///
/// The per-stage constants are computed once per call. Stage `i`'s
/// coefficients are evaluated just before `C_IN(i)` moves, while the sizes
/// they read (`C_IN(i)` and `C_L(i)`) still hold their values from the
/// start of the sweep, so the sweep equals, bit for bit, one that freezes
/// the whole path's coefficients up front.
pub(crate) fn sweep_links(
    lib: &Library,
    path: &TimedPath,
    sizes: &mut [f64],
    max_sweeps: usize,
    tolerance: f64,
    mut after_sweep: impl FnMut(&[f64]),
) -> usize {
    let links = Links::new(lib, path);
    let cref = lib.min_drive_ff();
    let mut sweeps = 0;
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut max_rel_change: f64 = 0.0;
        let mut prev = links.point(0, sizes);
        for i in 1..sizes.len() {
            // C_L(i) reads the current downstream size, as the paper's
            // iteration does; upstream ≥ 0 keeps the root positive.
            let cur = links.point(i, sizes);
            let upstream = prev.a / sizes[i - 1] + prev.up_corr + cur.own_corr;
            let target = (cur.a * cur.load / upstream.max(1e-12)).sqrt();
            let new = target.max(cref);
            max_rel_change = max_rel_change.max((new - sizes[i]).abs() / sizes[i]);
            sizes[i] = new;
            prev = cur;
        }
        after_sweep(sizes);
        if max_rel_change < tolerance {
            break;
        }
    }
    sweeps
}

/// Newton stops once no size moves by this much, relative. The iteration
/// converges quadratically, so the last step lands within rounding of the
/// fixed point; much tighter stops (1e-15) never fire on long paths,
/// whose sizes bounce at rounding level.
const NEWTON_TOLERANCE: f64 = 1e-10;

/// Newton iterations before giving up. Seeded random paths of up to 130
/// stages need at most a few dozen.
pub(crate) const NEWTON_MAX_ITERATIONS: usize = 100;

/// What one [`newton_links`] solve reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkSolve {
    /// Newton iterations run (at least 1).
    pub(crate) iterations: usize,
    /// `Σy` over the free stages, where `H·y = 1` with the held stages'
    /// rows as identity rows and right-hand side 0, on the last
    /// iteration's factorization. Along the solution curve
    /// `dC_IN/da = y`, so `dΣC_IN/da = Σy` and `dT/da = a·Σy`.
    pub(crate) unit_sum: f64,
}

/// Solve the link equations `∂T/∂C_IN(i) = a` over the interior stages in
/// place from `sizes` — eq. (4) at `a = 0`, eq. (6) below — by a
/// safeguarded Newton iteration on the exact gradient and tridiagonal
/// Hessian (module docs).
///
/// Each iteration is one Thomas solve of `H·δ = −(g − a)`. The step is
/// clamped to `[C/4, 4·C]` per stage and then at the minimum drive
/// `C_REF`. A stage sitting at `C_REF` whose gradient exceeds `a` is held
/// there (an identity row in the system), which is the bound's
/// first-order condition. The iteration stops when no size moves by
/// `1e-10` relative; one more substitution on the last factorization
/// then solves `H·y = 1` for [`LinkSolve::unit_sum`]. At `a = 0`,
/// [`crate::bounds::tmin`]'s solve, every step is that of
/// `∂T/∂C_IN = 0` bit for bit.
pub(crate) fn newton_links(
    lib: &Library,
    path: &TimedPath,
    a: f64,
    sizes: &mut [f64],
) -> LinkSolve {
    let n = sizes.len();
    let mut solve = LinkSolve {
        iterations: 0,
        unit_sum: 0.0,
    };
    if n < 2 {
        // No interior stage: the one iteration has nothing to move.
        solve.iterations = 1;
        return solve;
    }
    let links = Links::new(lib, path);
    let cref = lib.min_drive_ff();
    // Forward elimination state of row i: pivot, right-hand side, the
    // coupling to row i−1 (0 when either stage is held), and the row's
    // entry of the unit right-hand side (0 when held).
    let mut pivot = vec![1.0; n];
    let mut rhs = vec![0.0; n];
    let mut lower = vec![0.0; n];
    let mut unit = vec![0.0; n];
    while solve.iterations < NEWTON_MAX_ITERATIONS {
        solve.iterations += 1;
        let mut prev = links.partials(0, sizes);
        let mut prev_held = true;
        for i in 1..n {
            let cur = links.partials(i, sizes);
            let g = prev.fy + cur.fx;
            let held = sizes[i] <= cref && g > a;
            let (d, r, u, l) = if held {
                (1.0, 0.0, 0.0, 0.0)
            } else {
                let l = if prev_held { 0.0 } else { prev.fxy };
                (prev.fyy + cur.fxx, -(g - a), 1.0, l)
            };
            let w = l / pivot[i - 1];
            pivot[i] = d - w * l;
            rhs[i] = r - w * rhs[i - 1];
            lower[i] = l;
            unit[i] = u;
            prev = cur;
            prev_held = held;
        }
        let mut max_rel_change: f64 = 0.0;
        let mut step = 0.0;
        for i in (1..n).rev() {
            let upper = if i + 1 < n { lower[i + 1] } else { 0.0 };
            step = (rhs[i] - upper * step) / pivot[i];
            let c = sizes[i];
            let new = (c + step).clamp(0.25 * c, 4.0 * c).max(cref);
            max_rel_change = max_rel_change.max((new - c).abs() / c);
            sizes[i] = new;
        }
        if max_rel_change < NEWTON_TOLERANCE {
            break;
        }
    }
    for i in 1..n {
        unit[i] -= lower[i] / pivot[i - 1] * unit[i - 1];
    }
    let mut y = 0.0;
    for i in (1..n).rev() {
        let upper = if i + 1 < n { lower[i + 1] } else { 0.0 };
        y = (unit[i] - upper * y) / pivot[i];
        solve.unit_sum += y;
    }
    solve
}

/// Analytic path gradient `∂T/∂C_IN(i)` at `sizes` — exact at the
/// operating point: `∂F_{i−1}/∂y + ∂F_i/∂x` in the module docs' link
/// decomposition, which includes the Miller-factor derivatives.
///
/// Index 0 is the latch-pinned stage; its entry is still computed for
/// diagnostics. Cross-checked against [`TimedPath::gradient`] (numeric
/// central differences) in tests.
pub fn analytic_gradient(lib: &Library, path: &TimedPath, sizes: &[f64]) -> Vec<f64> {
    let links = Links::new(lib, path);
    let mut upstream = 0.0;
    (0..path.len())
        .map(|i| {
            let p = links.partials(i, sizes);
            let g = upstream + p.fx;
            upstream = p.fy;
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_delay::PathStage;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn mixed_path() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::with_load(Nand2, 8.0),
                PathStage::new(Nor3),
                PathStage::new(Inv),
                PathStage::new(Nand3),
            ],
            2.7,
            60.0,
        )
    }

    #[test]
    fn coefficients_are_positive() {
        let lib = lib();
        let p = mixed_path();
        let sizes = p.min_sizes(&lib);
        let op = operating_point(&lib, &p, &sizes);
        for (i, &a) in op.a.iter().enumerate() {
            assert!(a > 0.0, "A[{i}] = {a}");
        }
    }

    #[test]
    fn interior_coefficients_exceed_last() {
        // Interior stages carry the extra v_T slope term; the last stage
        // does not. With similar S factors its A must be smaller than an
        // identical interior stage's. Compare two identical inverters.
        let lib = lib();
        let p = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], 2.7, 30.0);
        let sizes = p.min_sizes(&lib);
        let op = operating_point(&lib, &p, &sizes);
        // Stage 1 and stage 2 share cell and (roughly) Miller factors;
        // stage 2 (last) lacks the downstream slope term.
        assert!(op.a[1] > op.a[2]);
    }

    #[test]
    fn analytic_gradient_tracks_numeric_gradient() {
        let lib = lib();
        let p = mixed_path();
        let mut sizes = p.min_sizes(&lib);
        for (i, s) in sizes.iter_mut().enumerate().skip(1) {
            *s = 3.0 + 2.0 * i as f64;
        }
        let ana = analytic_gradient(&lib, &p, &sizes);
        let num = p.gradient(&lib, &sizes);
        let scale = num.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        for i in 1..p.len() {
            // Exact up to central-difference truncation: allow a small
            // absolute band scaled by the largest gradient component.
            let err = (ana[i] - num[i]).abs();
            assert!(
                err < 1e-3 * scale + 1e-6,
                "stage {i}: analytic {} vs numeric {} (err {err})",
                ana[i],
                num[i]
            );
        }
    }

    fn spread_sizes(lib: &Library, p: &TimedPath) -> Vec<f64> {
        let mut sizes = p.min_sizes(lib);
        for (i, s) in sizes.iter_mut().enumerate().skip(1) {
            *s = 3.0 + 2.0 * i as f64;
        }
        sizes
    }

    #[test]
    fn link_gradient_matches_the_operating_point_form() {
        // ∂F_{i−1}/∂y + ∂F_i/∂x against the sweep's coefficients:
        // A_{i−1}/C_{i−1} + up_{i−1} − A_i·C_L(i)/C_i² + own_i.
        let lib = lib();
        for p in [
            mixed_path(),
            mixed_path().with_input_conditions(Edge::Falling, 20.0),
        ] {
            let sizes = spread_sizes(&lib, &p);
            let op = operating_point(&lib, &p, &sizes);
            let g = analytic_gradient(&lib, &p, &sizes);
            for i in 0..p.len() {
                let upstream = if i > 0 {
                    op.a[i - 1] / sizes[i - 1] + op.up_corr[i - 1]
                } else {
                    0.0
                };
                let own = op.a[i] * op.load_ext[i] / (sizes[i] * sizes[i]);
                let want = upstream - own + op.own_corr[i];
                let scale = upstream.abs() + own.abs();
                assert!(
                    (g[i] - want).abs() <= 1e-12 * scale,
                    "stage {i}: {} vs {want}",
                    g[i]
                );
            }
        }
    }

    #[test]
    fn link_hessian_matches_differences_of_the_gradient() {
        let lib = lib();
        let p = mixed_path();
        let n = p.len();
        let sizes = spread_sizes(&lib, &p);
        let links = Links::new(&lib, &p);
        let parts: Vec<LinkPartials> = (0..n).map(|j| links.partials(j, &sizes)).collect();
        for i in 1..n {
            let h = 1e-4 * sizes[i];
            let mut up = sizes.clone();
            up[i] += h;
            let mut dn = sizes.clone();
            dn[i] -= h;
            let gu = analytic_gradient(&lib, &p, &up);
            let gd = analytic_gradient(&lib, &p, &dn);
            for r in 1..n {
                let numeric = (gu[r] - gd[r]) / (2.0 * h);
                let exact = if r == i {
                    parts[i - 1].fyy + parts[i].fxx
                } else if r + 1 == i {
                    parts[r].fxy
                } else if r == i + 1 {
                    parts[i].fxy
                } else {
                    0.0
                };
                assert!(
                    (numeric - exact).abs() <= 1e-6 * (parts[r].fxx.abs() + 1e-9),
                    "H[{r}][{i}]: numeric {numeric} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn gradient_sign_flips_across_the_optimum() {
        // For a mid-path gate: tiny size → own term dominates (negative
        // gradient); huge size → upstream loading dominates (positive).
        let lib = lib();
        let p = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], 2.7, 100.0);
        let mut sizes = p.min_sizes(&lib);
        sizes[1] = 2.7;
        sizes[2] = 10.0;
        let g_small = analytic_gradient(&lib, &p, &sizes)[1];
        sizes[1] = 200.0;
        let g_big = analytic_gradient(&lib, &p, &sizes)[1];
        assert!(g_small < 0.0);
        assert!(g_big > 0.0);
    }

    #[test]
    fn loads_match_path_loads() {
        let lib = lib();
        let p = mixed_path();
        let sizes = p.min_sizes(&lib);
        let op = operating_point(&lib, &p, &sizes);
        for i in 0..p.len() {
            assert_eq!(op.load_ext[i], p.stage_load_ff(i, &sizes));
        }
    }
}
