//! The per-gate timing kernels of [`crate::incremental`], both
//! directions, and the arc scans its on-demand reads re-run.
//!
//! Each kernel re-runs one step of a full pass over the rank-major
//! slabs (see [`crate::incremental`]) with the model constants cached
//! per (gate, corner): the forward gate evaluation of
//! [`crate::analysis::analyze_with`], keeping each output edge's latest
//! arrival and its slope, and the gate-centric required scatter of
//! [`crate::required_times`] that the backward sweep runs. Forward
//! dirty-cone drains and full sweeps call the same kernel, so they
//! cannot diverge. The full pass's predecessors and worst gate delays
//! follow from the settled state: the graph re-runs the forward
//! kernel's arc scan ([`GateArcs::latest`], [`GateArcs::worst_delay`])
//! when asked. Every arc delay comes from [`GateArcs::delay`].

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
    vt: [f64; 2],
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

impl EvalCtx<'_> {
    /// The arcs of gate `gi` on corner `c` under the load `load` on its
    /// output net, their fanin-independent terms hoisted. With
    /// [`GateArcs::delay`] this is the single home of the delay-model
    /// arithmetic: every expression reproduces the exact operation order
    /// of `gate_delay_with_output_edge`, so arc delays (and therefore the
    /// whole timing state, both directions) stay bit-identical to the
    /// full passes.
    #[inline]
    pub(crate) fn arcs(&self, gi: usize, c: usize, load: f64) -> GateArcs<'_> {
        let p = &self.gate_params[gi * self.n_corners + c];
        let cin = self.cins[gi];
        let cl_total = p.cpar_factor * cin + load;
        let cm = [0.5 * cin * p.k / (1.0 + p.k), 0.5 * cin / (1.0 + p.k)];
        GateArcs {
            ctx: self,
            gi,
            c,
            load,
            vt: p.vt,
            tau_out_by_edge: [p.tau_s[0] * cl_total / cin, p.tau_s[1] * cl_total / cin],
            miller: [
                1.0 + 2.0 * cm[0] / (cm[0] + cl_total),
                1.0 + 2.0 * cm[1] / (cm[1] + cl_total),
            ],
        }
    }
}

/// One gate's arcs on one corner under its current drive and load: the
/// hoisted terms, the one arc-delay expression and the full pass's arc
/// scan over them.
pub(crate) struct GateArcs<'a> {
    ctx: &'a EvalCtx<'a>,
    gi: usize,
    c: usize,
    load: f64,
    /// [`GateParams::vt`].
    vt: [f64; 2],
    /// τ_out per *output* edge: `(τ·S) · C_L / C_IN`.
    tau_out_by_edge: [f64; 2],
    /// Miller amplification per *input* edge (C_M couples through the
    /// P device on a rising input, the N device on a falling one).
    miller: [f64; 2],
}

impl GateArcs<'_> {
    /// τ_out of `out_edge`: the output slope of every arc into it.
    #[inline]
    pub(crate) fn tau_out(&self, out_edge: Edge) -> f64 {
        self.tau_out_by_edge[eidx(out_edge)]
    }

    /// Delay of the arc from `in_edge`, at input slope `s_in`, to
    /// `out_edge`: `0.5·v_T·τ_in + 0.5·miller·τ_out` over the cached
    /// constants, cross-checked in debug builds against
    /// [`gate_delay_with_output_edge_vt`] bit for bit.
    #[inline]
    pub(crate) fn delay(&self, s_in: f64, in_edge: Edge, out_edge: Edge) -> f64 {
        let i = eidx(in_edge);
        let delay_ps = 0.5 * self.vt[i] * s_in + 0.5 * self.miller[i] * self.tau_out(out_edge);
        debug_assert_eq!(
            delay_ps.to_bits(),
            gate_delay_with_output_edge_vt(
                &self.ctx.libs[self.c],
                self.ctx.s.cell[self.gi],
                VtTiming::of(self.ctx.vt_class[self.gi]),
                self.ctx.cins[self.gi],
                self.load,
                s_in,
                in_edge,
                out_edge,
            )
            .delay_ps
            .to_bits(),
            "cached-constant arc delay must match the model"
        );
        delay_ps
    }

    /// The full pass's arc scan into `out_edge`: every arc from a reached
    /// input edge (arrival not `-inf`), fanin by fanin, visited with the
    /// fanin's index into `Structure::fanin`, the input edge, its
    /// arrival and the arc delay, read from the slot-major slabs.
    #[inline]
    fn scan(
        &self,
        arrival: &[[f64; 2]],
        slope: &[[f64; 2]],
        out_edge: Edge,
        mut visit: impl FnMut(usize, Edge, f64, f64),
    ) {
        let s = self.ctx.s;
        let nc = self.ctx.n_corners;
        let cell = s.cell[self.gi];
        for idx in s.fanin_off[self.gi] as usize..s.fanin_off[self.gi + 1] as usize {
            let entry = s.fanin_slots[idx] as usize * nc + self.c;
            let (in_arrival, in_slope) = (arrival[entry], slope[entry]);
            for &in_edge in compatible_input_edges(cell, out_edge) {
                let t_in = in_arrival[eidx(in_edge)];
                if t_in == f64::NEG_INFINITY {
                    continue;
                }
                let delay_ps = self.delay(in_slope[eidx(in_edge)], in_edge, out_edge);
                visit(idx, in_edge, t_in, delay_ps);
            }
        }
    }

    /// The latest arrival into `out_edge` and the `(fanin net, input
    /// edge)` that sets it: the first strict maximum of `t_in + delay`
    /// in scan order, the full pass's tie rule. `None` when no input
    /// is reached.
    #[inline]
    pub(crate) fn latest(
        &self,
        arrival: &[[f64; 2]],
        slope: &[[f64; 2]],
        out_edge: Edge,
    ) -> Option<(f64, NetId, Edge)> {
        let mut best: Option<(f64, usize, Edge)> = None;
        self.scan(arrival, slope, out_edge, |idx, in_edge, t_in, delay_ps| {
            let t_out = t_in + delay_ps;
            if best.is_none_or(|(t, ..)| t_out > t) {
                best = Some((t_out, idx, in_edge));
            }
        });
        best.map(|(t, idx, in_edge)| (t, self.ctx.s.fanin[idx], in_edge))
    }

    /// The gate's worst arc delay: the largest delay the scans into both
    /// output edges visit, 0 when no input is reached — the full pass's
    /// per-gate k-paths weight.
    pub(crate) fn worst_delay(&self, arrival: &[[f64; 2]], slope: &[[f64; 2]]) -> f64 {
        let mut worst = 0.0f64;
        for out_edge in EDGES {
            self.scan(arrival, slope, out_edge, |_, _, _, delay_ps| {
                worst = worst.max(delay_ps);
            });
        }
        worst
    }
}

/// The mutable forward slabs for one flush.
pub(crate) struct FwdView<'a> {
    pub arrival: &'a mut [[f64; 2]],
    pub slope: &'a mut [[f64; 2]],
    pub load: &'a [f64],
}

impl FwdView<'_> {
    /// Re-run the full pass's step for the gate at `pos` across every
    /// corner — each output edge's latest arrival and its slope — write
    /// its output slots and return the change flags OR-ed over corners.
    /// Corners are fully independent lanes: identical arc order,
    /// comparisons and floating-point operations per corner to a
    /// single-corner engine.
    pub(crate) fn eval_gate(&mut self, ctx: &EvalCtx<'_>, pos: usize) -> u8 {
        let gi = ctx.s.topo[pos].index();
        let out_slot = ctx.s.n_src + pos;
        let load = self.load[out_slot];
        let nc = ctx.n_corners;

        let mut flags = 0u8;
        for c in 0..nc {
            let arcs = ctx.arcs(gi, c, load);
            let mut new_arrival = [f64::NEG_INFINITY; 2];
            let mut new_slope = [0.0f64; 2];
            for out_edge in EDGES {
                if let Some((t, ..)) = arcs.latest(self.arrival, self.slope, out_edge) {
                    new_arrival[eidx(out_edge)] = t;
                    new_slope[eidx(out_edge)] = arcs.tau_out(out_edge);
                }
            }

            let out = out_slot * nc + c;
            if new_slope.map(f64::to_bits) != self.slope[out].map(f64::to_bits) {
                flags |= F_SLOPE;
            }
            if new_arrival.map(f64::to_bits) != self.arrival[out].map(f64::to_bits) {
                flags |= F_ARRIVAL;
            }
            self.arrival[out] = new_arrival;
            self.slope[out] = new_slope;
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
        let gi = ctx.s.topo[pos].index();
        let out_slot = ctx.s.n_src + pos;
        let cell = ctx.s.cell[gi];
        let nc = ctx.n_corners;
        let fanin_range = ctx.s.fanin_off[gi] as usize..ctx.s.fanin_off[gi + 1] as usize;
        for c in 0..nc {
            let arcs = ctx.arcs(gi, c, self.load[out_slot]);
            for out_edge in EDGES {
                let req_out = self.required[out_slot * nc + c][eidx(out_edge)];
                if req_out == f64::INFINITY {
                    continue;
                }
                for idx in fanin_range.clone() {
                    let in_slot = ctx.s.fanin_slots[idx] as usize;
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let i = eidx(in_edge);
                        let slope = self.slope[in_slot * nc + c][i];
                        let candidate = req_out - arcs.delay(slope, in_edge, out_edge);
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
