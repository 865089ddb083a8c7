//! The per-gate timing kernels of [`crate::incremental`], both
//! directions.
//!
//! Each kernel re-runs one step of a full pass over the rank-major
//! slabs (see [`crate::incremental`]) with the model constants cached
//! per (gate, corner): the forward gate evaluation of
//! [`crate::analysis::analyze_with`], and the gate-centric required
//! scatter of [`crate::required_times`] that the backward sweep runs.
//! Forward dirty-cone drains (the one drain loop of `crate::dirty`)
//! and full forward sweeps call the same kernel, so they cannot
//! diverge: bit-identical state is a structural property (the
//! differential suites assert it anyway).

use pops_delay::model::{gate_delay_with_output_edge_vt, Edge};
use pops_delay::{Library, VtTiming};
use pops_netlist::{CellKind, Circuit, NetId, VtClass};

use crate::analysis::{compatible_input_edges, eidx, EDGES};
use crate::incremental::Structure;

/// The slope of the gate's output net changed (bitwise).
pub(crate) const F_SLOPE: u8 = 1 << 0;
/// The output net's arrival changed — a primary output's
/// critical-output leaves update.
pub(crate) const F_ARRIVAL: u8 = 1 << 1;
/// The output net moved at all (slope or arrival): fanouts re-mark.
pub(crate) const F_OUT_CHANGED: u8 = F_SLOPE | F_ARRIVAL;

/// Predecessor record per edge: `(fanin net, input edge)` of the worst
/// arrival.
pub(crate) type PredPair = [Option<(NetId, Edge)>; 2];

/// Per-(gate, corner) model constants, flattened out of the corner
/// libraries at build time.
///
/// `Library::cell()` is a by-kind lookup and the symmetry factors are
/// re-derived on every call; one cone re-evaluation makes thousands of
/// arc evaluations, so the graph caches the resolved constants per gate
/// and corner. Every cached value is produced by the *same*
/// floating-point expression the model uses, so arc delays stay
/// bit-identical to
/// [`gate_delay_with_output_edge_vt`]
/// — and, for SVT gates on the typical corner, to the plain
/// single-corner model (the `× 1.0` Vt factors are bit-neutral).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateParams {
    /// `C_par = cpar_factor · C_IN`.
    cpar_factor: f64,
    /// P/N configuration ratio `k` (Miller coupling split).
    k: f64,
    /// `(τ · S(out_edge)) · drive_factor`, indexed by [`eidx`] of the
    /// output edge (the Vt variant's drive derate folds in here).
    tau_s: [f64; 2],
    /// Reduced thresholds `v_T · vt_scale` of this gate's corner and Vt
    /// variant, indexed by [`eidx`] of the *input* edge.
    pub(crate) vt: [f64; 2],
}

/// Fanin-independent arc terms of one gate under its current drive and
/// load, hoisted out of the per-arc loops of the forward and backward
/// kernels ([`crate::kernel`]).
pub(crate) struct ArcTerms {
    /// τ_out per *output* edge: `(τ·S) · C_L / C_IN`.
    pub(crate) tau_out_by_edge: [f64; 2],
    /// Miller amplification per *input* edge (C_M couples through the
    /// P device on a rising input, the N device on a falling one).
    pub(crate) miller: [f64; 2],
}

impl GateParams {
    /// Compute the hoisted arc terms. This is the single home of the
    /// delay-model arithmetic shared by the forward and backward
    /// evaluators: every expression reproduces the exact operation
    /// order of `gate_delay_with_output_edge`, so arc delays (and
    /// therefore the whole timing state, both directions) stay
    /// bit-identical to the full passes.
    pub(crate) fn arc_terms(&self, cin: f64, load: f64) -> ArcTerms {
        let cl_total = self.cpar_factor * cin + load;
        let tau_out_by_edge = [
            self.tau_s[0] * cl_total / cin,
            self.tau_s[1] * cl_total / cin,
        ];
        let cm = [
            0.5 * cin * self.k / (1.0 + self.k),
            0.5 * cin / (1.0 + self.k),
        ];
        let miller = [
            1.0 + 2.0 * cm[0] / (cm[0] + cl_total),
            1.0 + 2.0 * cm[1] / (cm[1] + cl_total),
        ];
        ArcTerms {
            tau_out_by_edge,
            miller,
        }
    }
}

impl GateParams {
    /// Whether every arc through a gate with these constants has a
    /// non-negative delay under non-negative input slopes and loads:
    /// `0.5·v_T·τ_in + 0.5·miller·τ_out` with the thresholds, the time
    /// constants, `C_par` and `k` (so `miller ≥ 1`) non-negative — the
    /// physical domain of the model.
    pub(crate) fn delays_nonnegative(&self) -> bool {
        self.cpar_factor >= 0.0
            && self.k >= 0.0
            && self.tau_s.iter().chain(&self.vt).all(|&x| x >= 0.0)
    }
}

/// Resolve the flattened model constants of one `(cell, Vt variant)`
/// pair under one corner's library. This is the single home of the
/// constant-folding arithmetic: `tau_s` caches `(τ·S) · drive_factor`
/// in the exact association order of
/// [`gate_delay_with_output_edge_vt`]'s
/// `process.tau_ps * s * drive_factor * C_L / C_IN`, and `vt` caches
/// `v_T · vt_scale` — so for an SVT gate (both factors `1.0`,
/// bit-neutral) the constants reproduce the plain single-corner model
/// bit for bit.
pub(crate) fn gate_params_for(lib: &Library, kind: CellKind, class: VtClass) -> GateParams {
    let process = lib.process();
    let cell = lib.cell(kind);
    let vtt = VtTiming::of(class);
    let mut tau_s = [0.0f64; 2];
    for e in EDGES {
        tau_s[eidx(e)] = process.tau_ps * cell.s_factor(process, e) * vtt.drive_factor;
    }
    GateParams {
        cpar_factor: cell.cpar_factor,
        k: cell.k,
        tau_s,
        vt: [
            process.vtn_reduced() * vtt.vt_scale,
            process.vtp_reduced() * vtt.vt_scale,
        ],
    }
}

/// Flatten the model constants of every gate under every corner,
/// corner-innermost (`gi * n_corners + c`). Called at construction and
/// again by every structural edit, over the edited circuit.
pub(crate) fn build_gate_params(
    circuit: &Circuit,
    corner_libs: &[Library],
    vt_class: &[VtClass],
) -> Vec<GateParams> {
    let mut out = Vec::with_capacity(circuit.gate_count() * corner_libs.len());
    for g in circuit.gate_ids() {
        let kind = circuit.gate(g).kind();
        for lib in corner_libs {
            out.push(gate_params_for(lib, kind, vt_class[g.index()]));
        }
    }
    out
}

/// Read-only view of every circuit-derived array the kernels need,
/// assembled by the graph per flush.
pub(crate) struct EvalCtx<'a> {
    /// Topology, adjacency and slot layout (`pos` indexes `s.topo`;
    /// gate `pos` writes slot `s.n_src + pos`).
    pub s: &'a Structure,
    /// Flattened model constants per (gate, corner), corner-innermost:
    /// gate `gi` at corner `c` is `gate_params[gi * n_corners + c]`.
    pub gate_params: &'a [GateParams],
    /// Number of process corners (the stride of every per-corner slab).
    pub n_corners: usize,
    /// Vt variant per gate (id-indexed; for the debug model cross-check
    /// — the electrical effect is baked into `gate_params`).
    pub vt_class: &'a [VtClass],
    /// Input capacitance per gate (id-indexed).
    pub cins: &'a [f64],
    /// One characterized library per corner, corner-indexed — for the
    /// debug cross-check against the reference delay model.
    pub libs: &'a [Library],
}

/// The mutable forward slabs for one flush.
pub(crate) struct FwdView<'a> {
    pub arrival: &'a mut [[f64; 2]],
    pub slope: &'a mut [[f64; 2]],
    pub pred: &'a mut [PredPair],
    pub load: &'a [f64],
    pub gate_delay_worst: &'a mut [f64],
}

impl FwdView<'_> {
    /// Re-run the full pass's step for the gate at `pos` across every
    /// corner, write its output slots and return the change flags
    /// OR-ed over corners. Corners are fully independent lanes —
    /// identical arc order, comparisons and floating-point operations
    /// per corner to a single-corner engine (the `debug_assert`
    /// cross-checks the model).
    pub(crate) fn eval_gate(&mut self, ctx: &EvalCtx<'_>, pos: usize) -> u8 {
        let gid = ctx.s.topo[pos];
        let gi = gid.index();
        let cell = ctx.s.cell[gi];
        let cin = ctx.cins[gi];
        let out_slot = ctx.s.n_src + pos;
        let load = self.load[out_slot];
        let nc = ctx.n_corners;
        let fanin_range = ctx.s.fanin_off[gi] as usize..ctx.s.fanin_off[gi + 1] as usize;

        let mut flags = 0u8;
        for c in 0..nc {
            let params = &ctx.gate_params[gi * nc + c];
            // The arc terms that do not depend on the fanin are hoisted
            // out of the loop (shared with the backward kernels).
            let ArcTerms {
                tau_out_by_edge,
                miller,
            } = params.arc_terms(cin, load);

            let mut new_arrival = [f64::NEG_INFINITY; 2];
            let mut new_slope = [0.0f64; 2];
            let mut new_pred: PredPair = [None, None];
            let mut worst_gate_delay = 0.0f64;

            for out_edge in EDGES {
                let tau_out = tau_out_by_edge[eidx(out_edge)];
                let mut best: Option<(f64, NetId, Edge)> = None;
                for idx in fanin_range.clone() {
                    let in_net = ctx.s.fanin[idx];
                    let in_slot = ctx.s.fanin_slots[idx] as usize;
                    let in_arrival = self.arrival[in_slot * nc + c];
                    let in_slope = self.slope[in_slot * nc + c];
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let t_in = in_arrival[eidx(in_edge)];
                        if t_in == f64::NEG_INFINITY {
                            continue;
                        }
                        let s_in = in_slope[eidx(in_edge)];
                        let i = eidx(in_edge);
                        let delay_ps = 0.5 * params.vt[i] * s_in + 0.5 * miller[i] * tau_out;
                        debug_assert!(
                            delay_ps.to_bits()
                                == gate_delay_with_output_edge_vt(
                                    &ctx.libs[c],
                                    cell,
                                    VtTiming::of(ctx.vt_class[gi]),
                                    cin,
                                    load,
                                    s_in,
                                    in_edge,
                                    out_edge,
                                )
                                .delay_ps
                                .to_bits(),
                            "cached-constant arc delay must match the model"
                        );
                        worst_gate_delay = worst_gate_delay.max(delay_ps);
                        let t_out = t_in + delay_ps;
                        if best.map(|(t, ..)| t_out > t).unwrap_or(true) {
                            best = Some((t_out, in_net, in_edge));
                        }
                    }
                }
                if let Some((t, n, e)) = best {
                    let i = eidx(out_edge);
                    new_arrival[i] = t;
                    new_slope[i] = tau_out;
                    new_pred[i] = Some((n, e));
                }
            }

            let out = out_slot * nc + c;
            let old_arrival = self.arrival[out];
            let old_slope = self.slope[out];
            if new_slope[0].to_bits() != old_slope[0].to_bits()
                || new_slope[1].to_bits() != old_slope[1].to_bits()
            {
                flags |= F_SLOPE;
            }
            if new_arrival[0].to_bits() != old_arrival[0].to_bits()
                || new_arrival[1].to_bits() != old_arrival[1].to_bits()
            {
                flags |= F_ARRIVAL;
            }
            self.gate_delay_worst[pos * nc + c] = worst_gate_delay;
            self.arrival[out] = new_arrival;
            self.slope[out] = new_slope;
            self.pred[out] = new_pred;
        }
        flags
    }
}

/// The mutable backward slab for one sweep, plus the read-only forward
/// state it derives from (settled first — the two-phase flush
/// contract).
pub(crate) struct BwdView<'a> {
    pub required: &'a mut [[f64; 2]],
    pub slope: &'a [[f64; 2]],
    pub load: &'a [f64],
}

impl BwdView<'_> {
    /// One gate of the gate-centric required sweep: read the gate's own
    /// (settled) required slot, hoist its arc terms once, and min-fold
    /// one candidate per fanin arc straight into the fanin slots —
    /// exactly [`crate::required_times`]'s per-gate walk over the cached
    /// constants. Run in descending topo order, every candidate into a
    /// slot lands before that slot's own gate reads it.
    pub(crate) fn sweep_gate(&mut self, ctx: &EvalCtx<'_>, pos: usize) {
        let gid = ctx.s.topo[pos];
        let gi = gid.index();
        let out_slot = ctx.s.n_src + pos;
        let cell = ctx.s.cell[gi];
        let cin = ctx.cins[gi];
        let load = self.load[out_slot];
        let nc = ctx.n_corners;
        let fanin_range = ctx.s.fanin_off[gi] as usize..ctx.s.fanin_off[gi + 1] as usize;
        for c in 0..nc {
            let params = &ctx.gate_params[gi * nc + c];
            let ArcTerms {
                tau_out_by_edge,
                miller,
            } = params.arc_terms(cin, load);
            for out_edge in EDGES {
                let req_out = self.required[out_slot * nc + c][eidx(out_edge)];
                if req_out == f64::INFINITY {
                    continue;
                }
                let tau_out = tau_out_by_edge[eidx(out_edge)];
                for idx in fanin_range.clone() {
                    let in_slot = ctx.s.fanin_slots[idx] as usize;
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let i = eidx(in_edge);
                        let slope = self.slope[in_slot * nc + c][i];
                        let delay_ps = 0.5 * params.vt[i] * slope + 0.5 * miller[i] * tau_out;
                        debug_assert_eq!(
                            delay_ps.to_bits(),
                            gate_delay_with_output_edge_vt(
                                &ctx.libs[c],
                                cell,
                                VtTiming::of(ctx.vt_class[gi]),
                                cin,
                                load,
                                slope,
                                in_edge,
                                out_edge,
                            )
                            .delay_ps
                            .to_bits(),
                            "cached-constant sweep arc delay must match the model"
                        );
                        let candidate = req_out - delay_ps;
                        let cur = &mut self.required[in_slot * nc + c][i];
                        if candidate < *cur {
                            *cur = candidate;
                        }
                    }
                }
            }
        }
    }
}
