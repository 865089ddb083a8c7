//! Operating-point coefficients `A_i` and the analytic path gradient.
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
//! the solvers re-freeze coefficients every sweep, and add the Miller
//! corrections, so their fixed points satisfy the *exact* first-order
//! conditions to within that residual.

use pops_delay::model::Edge;
use pops_delay::{Library, TimedPath};

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

/// Compute the `A_i` coefficients, loads, and Miller correction terms at
/// the sizing `sizes`.
///
/// # Panics
///
/// Panics if `sizes.len() != path.len()`.
pub fn operating_point(lib: &Library, path: &TimedPath, sizes: &[f64]) -> OperatingPoint {
    assert_eq!(sizes.len(), path.len(), "one size per stage");
    let n = path.len();
    let process = lib.process();
    let tau = process.tau_ps;

    // Edge bookkeeping: input edge of stage i.
    let mut in_edges = Vec::with_capacity(n);
    let mut edge = path.input_edge();
    for stage in path.stages() {
        in_edges.push(edge);
        edge = edge.through(stage.cell);
    }

    let mut a = Vec::with_capacity(n);
    let mut load_ext = Vec::with_capacity(n);
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
        load_ext.push(cl_ext);
        // ∂m/∂C_L = −2·C_M/(C_M + C_Ltot)²; delay term is ½·m·τ_out.
        let dm_dcl = -2.0 * cm / ((cm + cl_tot) * (cm + cl_tot));
        up_corr.push(0.5 * dm_dcl * tau_out);
        // C_M = β·c, C_Ltot = p·c + C_L: dm/dc = 2·β·C_L/(βc + pc + C_L)².
        let beta = cm / c;
        let denom = beta * c + cell.cpar_factor * c + cl_ext;
        let dm_dc = 2.0 * beta * cl_ext / (denom * denom);
        own_corr.push(0.5 * dm_dc * tau_out);
    }
    OperatingPoint {
        a,
        load_ext,
        up_corr,
        own_corr,
    }
}

/// Sweep the link equations `∂T/∂C_IN(i) = a` in place from `sizes` —
/// eq. (4) at `a = 0`, eq. (6) below — until no size moves by `tolerance`
/// relative or `max_sweeps` ran; returns the sweeps run. Each sweep
/// freezes the coefficients at the current sizing, applies
/// `C_IN(i) ← √( A_i·C_L(i) / (A_{i−1}/C_IN(i−1) − a) )` forward over the
/// interior stages (clamped at the minimum drive) and calls `after_sweep`.
pub(crate) fn sweep_links(
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
        let op = operating_point(lib, path, sizes);
        let mut max_rel_change: f64 = 0.0;
        for i in 1..path.len() {
            // C_L(i) reads the current downstream size, as the paper's
            // iteration does; upstream ≥ 0 ≥ a keeps the root positive.
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

/// Analytic path gradient `∂T/∂C_IN(i)` at `sizes` — exact at the
/// operating point (the Miller correction terms are included).
///
/// Index 0 is the latch-pinned stage; its entry is still computed for
/// diagnostics. Cross-checked against [`TimedPath::gradient`] (numeric
/// central differences) in tests.
pub fn analytic_gradient(lib: &Library, path: &TimedPath, sizes: &[f64]) -> Vec<f64> {
    let op = operating_point(lib, path, sizes);
    let n = path.len();
    let mut g = Vec::with_capacity(n);
    for i in 0..n {
        let upstream = if i > 0 {
            op.a[i - 1] / sizes[i - 1] + op.up_corr[i - 1]
        } else {
            0.0
        };
        let own = op.a[i] * op.load_ext[i] / (sizes[i] * sizes[i]);
        g.push(upstream - own + op.own_corr[i]);
    }
    g
}

/// Analytic slack gradient `∂slack/∂C_IN(i) = −∂T/∂C_IN(i)` at `sizes`
/// (ps/fF). A *positive* entry is a stage whose upsizing buys slack —
/// the quantity slack-driven candidate ranking maximizes, replacing
/// "largest arrival" heuristics with "best slack return per fF".
pub fn slack_gradient(lib: &Library, path: &TimedPath, sizes: &[f64]) -> Vec<f64> {
    analytic_gradient(lib, path, sizes)
        .into_iter()
        .map(|g| -g)
        .collect()
}

/// Interior stage indices ordered best-upsize-candidate first: by
/// descending slack gain per added fF ([`slack_gradient`]), ties broken
/// by index. Stage 0 (the latch-pinned source) is excluded — it is not
/// a sizing variable.
pub fn rank_stages_by_slack_gain(lib: &Library, path: &TimedPath, sizes: &[f64]) -> Vec<usize> {
    let grad = slack_gradient(lib, path, sizes);
    let mut order: Vec<usize> = (1..path.len()).collect();
    order.sort_by(|&a, &b| grad[b].total_cmp(&grad[a]).then(a.cmp(&b)));
    order
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
    fn slack_gradient_is_the_negated_delay_gradient() {
        let lib = lib();
        let p = mixed_path();
        let sizes = p.min_sizes(&lib);
        let delay_grad = analytic_gradient(&lib, &p, &sizes);
        let slack_grad = slack_gradient(&lib, &p, &sizes);
        for i in 0..p.len() {
            assert_eq!(slack_grad[i].to_bits(), (-delay_grad[i]).to_bits());
        }
    }

    #[test]
    fn stage_ranking_puts_the_biggest_slack_gain_first() {
        let lib = lib();
        let p = mixed_path();
        let sizes = p.min_sizes(&lib);
        let grad = slack_gradient(&lib, &p, &sizes);
        let order = rank_stages_by_slack_gain(&lib, &p, &sizes);
        assert_eq!(order.len(), p.len() - 1);
        assert!(!order.contains(&0), "the pinned source is not a variable");
        for w in order.windows(2) {
            assert!(
                grad[w[0]] >= grad[w[1]],
                "ranking must be non-increasing in slack gain"
            );
        }
        // At all-minimum sizing some upsizing must buy slack.
        assert!(grad[order[0]] > 0.0);
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
