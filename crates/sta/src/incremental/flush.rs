//! The lazy flushes of a [`TimingGraph`]: its forward and backward
//! timing state and the drains and sweeps that settle it.
//!
//! # Lazy, query-driven flushing
//!
//! The sizing loop's workload is *many mutations, occasional slack
//! reads*: a sensitivity sweep resizes, probes, reverts; the flow
//! writes back a whole path before looking at slack again. Backward
//! state is therefore **never** brought up to date by a mutation.
//! Mutations only accumulate their seeds into the backward dirty sets
//! under a **generation counter**, and the first backward query —
//! slack, required time, design-worst slack — flushes the merged cone
//! once:
//!
//! ```text
//!           mutation (seeds ∪= cone, gen += 1)
//!        ┌──────────────────────────────────────┐
//!        ▼                                      │
//!   clean ──mutation──▶ dirty(gen) ──backward query──▶ flushed(gen) = clean
//! ```
//!
//! N resizes followed by one slack read pay **one** merged backward
//! propagation instead of N eager ones; the seeds deduplicate in the
//! dirty sets, and the bitwise convergence cut still confines the
//! flush to the union cone.
//!
//! The **forward** state is lazy under the same generation counter.
//! Mutations append id-keyed forward seed logs — resized gates, gates a
//! structural edit touched or created, a pending load rescan — and
//! every *forward* query, without exception (`critical_delay_ps`,
//! `arrival_ps`, `slope_ps`, `net_load_ff`, `gate_delay_worst_ps`,
//! `critical_path`, and every [`TimingView`](crate::TimingView) read),
//! marks them into the dirty set and drains one merged forward cone —
//! or sweeps, see *Drain or sweep* below. Backward queries are **two-phase**: they flush
//! forward first (required times re-derive from final slopes and
//! loads), then drain the backward seeds the forward flush just
//! deposited. The eager/lazy distinction is invisible to every
//! consumer — `tests/lazy_equivalence.rs` and
//! `tests/forward_lazy_equivalence.rs` prove any interleaving of
//! mutations and queries bit-identical to the eager semantics, and
//! [`UpdateStats::forward_flushes`](super::UpdateStats::forward_flushes) /
//! [`UpdateStats::backward_flushes`](super::UpdateStats::backward_flushes)
//! prove mutations alone never flush either direction.
//!
//! # The worst-slack tournament tree
//!
//! `worst_slack_overall_ps` used to fold over all nets per query —
//! O(nets) even when nothing moved, which is exactly what broke even on
//! the small-circuit probes. The backward flush already knows every net
//! whose required time or arrival moved, so the graph maintains a
//! `WorstSlackIndex`: per-net worst finite slacks at the leaves of a
//! tournament tree of partial minima. Each moved slack is an O(log
//! nets) leaf update folded in at flush time; the design-worst slack
//! query is then O(1) at the root, bit-identical to the full fold.
//!
//! # Drain or sweep
//!
//! Every flush — forward and required times — marks its seed logs
//! into a dirty set over topo positions and drains it with
//! the one drain loop of `crate::dirty`: positions pop in dependency
//! order (ascending forward, descending backward), each runs its
//! per-gate kernel from `crate::kernel`, and a changed output marks the
//! kernel's neighbours. One rule, `TimingGraph::drain_limit`, decides
//! per flush when a straight full sweep over the same kernels is
//! cheaper; drain and sweep land on the same bits.

use pops_delay::model::Edge;
use pops_netlist::{GateId, NetId};

use super::TimingGraph;
use crate::analysis::{eidx, EDGES};
use crate::dirty::{Direction, DirtySet, Drained};
use crate::kernel::{BwdView, EvalCtx, FwdView, PredPair, F_ARRIVAL, F_OUT_CHANGED, F_SLOPE};
use crate::slack::WorstSlackIndex;

/// Incrementally maintained forward timing state of a [`TimingGraph`]:
/// the floating-point arrays plus the lazy-flush bookkeeping. Lives in
/// a [`RefCell`](std::cell::RefCell) so forward queries on `&self` can
/// drain pending seeds.
#[derive(Debug, Clone)]
pub(super) struct ForwardState {
    /// Arrival time per edge (ps), **slot- and corner-indexed**: net
    /// slot `s` at corner `c` is entry `s * n_corners + c` (see
    /// [`Structure::slot_of`](super::Structure::slot_of)); `-inf` where
    /// unreachable. Slabs instead of per-net records: a full sweep
    /// writes slots in memory order (gate `p` owns slot `n_src + p`),
    /// so the sweep streams memory-bandwidth-bound. The corner lanes ride in the
    /// same stride-`n_corners` layout, propagated together in one pass.
    pub(super) arrival: Vec<[f64; 2]>,
    /// Transition time per edge (ps), slot- and corner-indexed.
    pub(super) slope: Vec<[f64; 2]>,
    /// Predecessor `(net, input edge)` of the worst arrival, slot- and
    /// corner-indexed.
    pub(super) pred: Vec<PredPair>,
    /// Capacitive load (fF) under the current sizing, slot-indexed —
    /// corner-*invariant* (corners derate only electrical parameters,
    /// never geometry), so this slab keeps stride 1.
    pub(super) load: Vec<f64>,
    /// Worst-case delay of each gate under the current slopes,
    /// **position- and corner-indexed** (`pos * n_corners + c`).
    pub(super) gate_delay_worst: Vec<f64>,
    /// Worst primary output `(net, edge)` per corner (corner-indexed).
    pub(super) critical_net: Vec<Option<(NetId, Edge)>>,

    /// Gates to re-evaluate, by topo position. Populated only *inside*
    /// a flush (mutators append to the id-keyed seed logs instead, so
    /// graph surgery can re-rank freely without orphaning pending
    /// marks) and drained in ascending order.
    pub(super) dirty: DirtySet,

    /// Generation ([`TimingGraph::gen`]) the forward state last flushed
    /// at; a mismatch means seeds are pending and the next forward
    /// query drains them (and deposits the backward seeds the drained
    /// cone produces — backward flushes therefore run *after* this).
    pub(super) flushed_gen: u64,

    /// Seed logs: the mutation-side half of the forward lazy contract.
    /// Mutators only *append* ids here — no rank lookups, no bitset
    /// read-modify-writes — and the flush marks them into the
    /// position-keyed dirty set. Entries may repeat; ids are stable across
    /// append-only surgery, so no translation is needed when ranks are
    /// reassigned.
    ///
    /// Gates whose drive changed: their fanin nets' loads recompute,
    /// those nets' drivers re-time, and the gate itself re-evaluates.
    pub(super) resized_log: Vec<GateId>,
    /// Gates a structural edit touched or created: re-evaluate outright
    /// (cell, wiring or environment may have changed).
    pub(super) gate_log: Vec<GateId>,
    /// A structural edit changed connectivity: recompare every net's
    /// load under the edited structure at flush time (the cached values
    /// are the pre-edit loads) and re-time the drivers of the ones that
    /// moved, seeding their backward cones alongside.
    pub(super) scan_loads: bool,
}

impl ForwardState {
    /// The per-gate kernels' view of the slabs, beside the dirty set.
    fn split(&mut self) -> (FwdView<'_>, &mut DirtySet) {
        let view = FwdView {
            arrival: &mut self.arrival,
            slope: &mut self.slope,
            pred: &mut self.pred,
            load: &self.load,
            gate_delay_worst: &mut self.gate_delay_worst,
        };
        (view, &mut self.dirty)
    }
}

/// Incrementally maintained backward timing state (see the module
/// docs): per-net required times under a fixed constraint, kept
/// consistent by reverse-rank dirty-cone propagation.
#[derive(Debug, Clone)]
pub(super) struct BackwardState {
    /// The cycle constraint applied at every primary output (ps).
    pub(super) tc_ps: f64,
    /// `required[net][edge]` (ps); `+inf` where unconstrained.
    pub(super) required: Vec<[f64; 2]>,

    /// Driven nets whose required times must re-derive, by the topo
    /// position of their driver (net slot `n_src + p`), drained in
    /// descending order.
    pub(super) req: DirtySet,
    /// Driverless nets whose required times must re-derive, by slot:
    /// sinks of the backward walk, drained after `req`.
    pub(super) req_src: DirtySet,

    /// Generation ([`TimingGraph::gen`]) the required-time state (and
    /// the worst-slack index) last flushed at; a mismatch means seeds
    /// are pending and the next slack/required query drains them.
    pub(super) req_flushed_gen: u64,

    /// Seed logs: the mutation-side half of the lazy contract. Hot
    /// paths (resize batches, forward cone evaluation) only *append*
    /// ids here — no rank lookups, no bitset read-modify-writes — and
    /// the flush marks them into the position-keyed dirty sets (a
    /// constraint change drops them with the old state: the new
    /// state's full sets subsume them). Entries may repeat; ids are
    /// stable across append-only surgery, so no translation is needed
    /// when ranks are reassigned.
    ///
    /// Gates whose drive changed: their fanin nets' required times and
    /// their fanin drivers' fanin required times re-derive.
    pub(super) resized_log: Vec<GateId>,
    /// Nets whose slope moved: their required times re-derive.
    pub(super) req_net_log: Vec<NetId>,
    /// Nets whose arrival moved: their worst-slack leaves re-fold.
    pub(super) slack_net_log: Vec<NetId>,

    /// Tournament tree over per-net worst finite slacks (root = design
    /// worst); see [`WorstSlackIndex`].
    pub(super) worst: WorstSlackIndex,
    /// Every slack may have moved (constraint change, graph surgery):
    /// rebuild the index wholesale at the next flush instead of
    /// per-leaf updates.
    pub(super) refold_all: bool,
}

impl TimingGraph<'_> {
    // ---- forward internals ----

    /// Store a net's exact load (see [`TimingGraph::fresh_net_load`]).
    /// Takes the raw net index so whole-array sweeps need no id
    /// round-trip.
    pub(super) fn recompute_net_load(&self, fwd: &mut ForwardState, net: usize) {
        fwd.load[self.s.slot_of[net] as usize] = self.fresh_net_load(net);
    }

    /// The forward side of the lazy flush: a no-op when the forward
    /// state already reflects the current mutation generation, or when
    /// a generation bump left no forward seeds (e.g. a constraint
    /// change). Otherwise one merged propagation covers every mutation
    /// since the last forward query: the seed logs are marked into the
    /// dirty set, which drains in ascending position order, stopping
    /// where a gate's re-evaluated output is bit-identical to its cached
    /// state. When [`TimingGraph::drain_limit`] says the cone covers most
    /// of the gates, a straight full topo sweep (no set bookkeeping, no
    /// fanout marking) finishes cheaper — and is bit-identical, because
    /// a topo-order pass gives every gate final fanin values and
    /// unchanged gates reproduce their cached bits exactly. Backward
    /// cones are *not* drained here — the seeds the walk deposits into
    /// the backward state (slope and arrival changes) stay pending
    /// until the next backward query's lazy flush.
    pub(super) fn flush_forward(&self) {
        let mut guard = self.fwd.borrow_mut();
        let fwd = &mut *guard;
        if fwd.flushed_gen == self.gen {
            return;
        }
        fwd.flushed_gen = self.gen;
        if !fwd.scan_loads && fwd.resized_log.is_empty() && fwd.gate_log.is_empty() {
            return;
        }
        let mut bw_guard = self.backward.borrow_mut();
        let mut bw = bw_guard.as_mut();
        let n_gates = self.s.topo.len();
        let n_nets = self.s.net_driver.len();

        // Materialize the pending seeds. Loads are recomputed exactly
        // (same summation order as the full pass — no delta
        // accumulation); marking is unconditional where the eager
        // engine marked unconditionally, so the convergence cut — not
        // the seeding — decides what actually re-evaluates.
        if fwd.scan_loads {
            fwd.scan_loads = false;
            // Surgery changed connectivity: recompare every net's load
            // against its cached (pre-edit) value and treat a changed
            // net like a resized fanin net — its driver re-times and
            // its backward state re-derives (arcs through the driver
            // moved with its output load).
            for net in 0..n_nets {
                let slot = self.s.slot_of[net] as usize;
                let old = fwd.load[slot];
                self.recompute_net_load(fwd, net);
                if old.to_bits() == fwd.load[slot].to_bits() {
                    continue;
                }
                if let Some(driver) = self.s.net_driver[net] {
                    fwd.dirty.mark(self.pos(driver));
                    if let Some(bw) = bw.as_deref_mut() {
                        bw.resized_log.push(driver);
                    }
                }
            }
        }
        let mut resized = std::mem::take(&mut fwd.resized_log);
        for gate in resized.drain(..) {
            // The fanin nets' loads moved with the gate's C_IN: their
            // drivers re-time, and the gate's own drive changed.
            let (lo, hi) = (
                self.s.fanin_off[gate.index()] as usize,
                self.s.fanin_off[gate.index() + 1] as usize,
            );
            for i in lo..hi {
                let in_net = self.s.fanin[i];
                self.recompute_net_load(fwd, in_net.index());
                if let Some(driver) = self.s.net_driver[in_net.index()] {
                    fwd.dirty.mark(self.pos(driver));
                }
            }
            fwd.dirty.mark(self.pos(gate));
        }
        fwd.resized_log = resized;
        for gate in fwd.gate_log.drain(..) {
            fwd.dirty.mark(self.pos(gate));
        }

        let (reevals, cuts, any_changed) = match self.drain_limit(&fwd.dirty, Direction::Forward) {
            None => (n_gates, 0, self.full_forward_sweep(fwd, bw)),
            Some(limit) => {
                let ctx = self.eval_ctx();
                let (mut view, dirty) = fwd.split();
                let done = dirty.drain(
                    Direction::Forward,
                    limit,
                    |pos| self.forward_step(&mut view, &ctx, &mut bw, pos),
                    |pos, dirty| {
                        let out = self.s.out_net[self.s.topo[pos].index()].index();
                        let (lo, hi) = (self.s.fanout_off[out], self.s.fanout_off[out + 1]);
                        for &g in &self.s.fanout[lo as usize..hi as usize] {
                            dirty.mark(self.pos(g));
                        }
                    },
                );
                (done.evals, done.cuts, done.evals > done.cuts)
            }
        };
        self.stat(|s| {
            s.forward_flushes += 1;
            s.gates_reevaluated += reevals;
            s.converged_early += cuts;
        });
        if any_changed {
            self.recompute_critical(fwd);
        }
    }

    /// Assemble the read-only circuit-array view the per-gate kernels
    /// ([`crate::kernel`]) consume.
    fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            s: &self.s,
            gate_params: &self.gate_params,
            n_corners: self.corner_libs.len(),
            vt_class: &self.vt_class,
            cins: self.sizing.as_slice(),
            libs: &self.corner_libs,
        }
    }

    /// Re-evaluate the gate at `pos`, deposit the lazy backward seeds
    /// its change flags call for — plain log appends: arcs *from* the
    /// output net move with its slope, the net's worst-slack leaf with
    /// its arrival — and report whether its output moved.
    fn forward_step(
        &self,
        view: &mut FwdView<'_>,
        ctx: &EvalCtx<'_>,
        bw: &mut Option<&mut BackwardState>,
        pos: usize,
    ) -> bool {
        let flags = view.eval_gate(ctx, pos);
        if let Some(bw) = bw.as_deref_mut() {
            let gid = self.s.topo[pos];
            if flags & F_SLOPE != 0 {
                bw.req_net_log.push(self.s.out_net[gid.index()]);
            }
            if flags & F_ARRIVAL != 0 {
                bw.slack_net_log.push(self.s.out_net[gid.index()]);
            }
        }
        flags & F_OUT_CHANGED != 0
    }

    /// Evaluate every gate once in topological order — exactly the full
    /// pass of `analyze_with` — streaming the slabs in memory order, and
    /// clear the dirty set it subsumes. Returns whether any output
    /// moved.
    pub(super) fn full_forward_sweep(
        &self,
        fwd: &mut ForwardState,
        mut bw: Option<&mut BackwardState>,
    ) -> bool {
        let ctx = self.eval_ctx();
        let (mut view, dirty) = fwd.split();
        dirty.clear();
        let mut any_changed = false;
        for pos in 0..self.s.topo.len() {
            any_changed |= self.forward_step(&mut view, &ctx, &mut bw, pos);
        }
        any_changed
    }

    /// Same worst-output scan (and tie-breaking order) as the full
    /// pass, run independently per corner.
    pub(super) fn recompute_critical(&self, fwd: &mut ForwardState) {
        let nc = self.corner_libs.len();
        for c in 0..nc {
            let mut critical: Option<(NetId, Edge, f64)> = None;
            for &po in &self.s.pos {
                for e in EDGES {
                    let t = fwd.arrival[self.slot(po) * nc + c][eidx(e)];
                    if t > critical.map(|(_, _, cr)| cr).unwrap_or(f64::NEG_INFINITY) {
                        critical = Some((po, e, t));
                    }
                }
            }
            fwd.critical_net[c] = critical.map(|(n, e, _)| (n, e));
        }
    }

    // ---- backward internals ----

    /// Mark the net at `slot` required-dirty: a driven net under its
    /// driver's topo position, a driverless one in the source set.
    fn mark_required(&self, req: &mut DirtySet, req_src: &mut DirtySet, slot: usize) {
        match slot.checked_sub(self.s.n_src) {
            Some(pos) => req.mark(pos),
            None => req_src.mark(slot),
        }
    }

    /// The backward side of the lazy flush: drain the accumulated
    /// required seeds in *descending* position order, then fold the
    /// moved slacks into the worst-slack index. A no-op when that state
    /// already reflects the current mutation generation; otherwise one
    /// merged reverse propagation covers every mutation since the last
    /// slack/required query. **Two-phase**: the forward state flushes
    /// first — required times derive from final slopes and loads, and
    /// the forward drain is what deposits this flush's arrival/slope
    /// seeds. Propagation stops where a recomputed required time is
    /// bit-identical to its cached value; marks always target strictly
    /// lower positions (a driver's fanins rank below it), and the
    /// driverless nets — sinks with no driver to propagate through —
    /// drain last.
    pub(super) fn flush_required(&self) {
        self.flush_forward();
        let fwd = self.fwd.borrow();
        let mut guard = self.backward.borrow_mut();
        let Some(bw) = guard.as_mut() else {
            return;
        };
        if bw.req_flushed_gen == self.gen {
            return;
        }
        bw.req_flushed_gen = self.gen;

        let BackwardState {
            tc_ps,
            required,
            req,
            req_src,
            resized_log,
            req_net_log,
            slack_net_log,
            ..
        } = &mut *bw;
        // Materialize the seed logs. A resized gate expands to its fanin
        // nets (arcs through it moved with its C_IN) and its fanin
        // drivers' fanin nets (their output loads moved).
        for net in req_net_log.drain(..) {
            self.mark_required(req, req_src, self.slot(net));
        }
        for gate in resized_log.drain(..) {
            for &s in self.fanin_slots_of(gate) {
                self.mark_required(req, req_src, s as usize);
                if let Some(pos) = (s as usize).checked_sub(self.s.n_src) {
                    for &d in self.fanin_slots_of(self.s.topo[pos]) {
                        self.mark_required(req, req_src, d as usize);
                    }
                }
            }
        }

        let drained = self.drain_limit(req, Direction::Backward).map(|limit| {
            let ctx = self.eval_ctx();
            let mut view = bwd_view(&fwd, *tc_ps, required);
            let mut eval = |slot: usize| {
                let net = self.net_at(slot);
                let changed = view.eval_required_net(&ctx, net.index(), slot);
                if changed {
                    slack_net_log.push(net);
                }
                changed
            };
            let mut done = req.drain(
                Direction::Backward,
                limit,
                |pos| eval(self.s.n_src + pos),
                |pos, req| {
                    for &s in self.fanin_slots_of(self.s.topo[pos]) {
                        self.mark_required(req, req_src, s as usize);
                    }
                },
            );
            if !done.bailed {
                let sinks = req_src.drain(Direction::Backward, usize::MAX, eval, |_, _| {});
                done.evals += sinks.evals;
                done.cuts += sinks.cuts;
            }
            done
        });
        let Drained {
            evals: mut req_reevals,
            cuts: req_cuts,
            ..
        } = drained.unwrap_or_default();
        let mut index_updates = 0usize;
        if drained.is_none_or(|d| d.bailed) {
            // Gate-centric full backward pass: same candidate multiset
            // per net as the drain would deliver (a min over one
            // multiset is order-independent — bit-identical), at
            // once-per-gate hoisting cost. Subsumes every pending mark.
            self.sweep_required_full(&fwd, bw);
            bw.req.clear();
            bw.req_src.clear();
            // The sweep bypasses per-net change detection, so the moved
            // slacks are unknown: refold the index wholesale below.
            bw.refold_all = true;
            req_reevals += self.s.slot_of.len();
        }

        // Fold the moved slacks into the tournament tree, now that the
        // required times are final for this generation. The log may
        // repeat a net; the repeat hits the leaf's bit-unchanged early
        // return. Past a quarter of the nets the per-leaf root walks
        // (random access × log n) lose to one linear wholesale refold —
        // which is the old O(nets) fold, paid once per flush instead of
        // once per query.
        // Leaves are keyed by *slot* — a bijection of the nets, so the
        // root min folds the same value multiset as a net-keyed tree
        // (bit-identical worst; surgery re-keys under `refold_all`).
        let n_nets = self.s.slot_of.len();
        let nc = self.corner_libs.len();
        if bw.refold_all || bw.slack_net_log.len() > n_nets / 4 {
            bw.refold_all = false;
            bw.slack_net_log.clear();
            let keys: Vec<f64> = (0..n_nets)
                .map(|slot| slack_key(&bw.required, &fwd.arrival, nc, slot))
                .collect();
            bw.worst.rebuild(&keys);
            index_updates += n_nets;
        } else {
            for net in bw.slack_net_log.drain(..) {
                let slot = self.slot(net);
                bw.worst
                    .update(slot, slack_key(&bw.required, &fwd.arrival, nc, slot));
                index_updates += 1;
            }
        }

        self.stat(|s| {
            s.backward_flushes += 1;
            s.required_reevaluated += req_reevals;
            s.required_converged_early += req_cuts;
            s.slack_index_updates += index_updates;
        });
    }

    /// Gate-centric full backward pass into `bw.required`: reinitialize
    /// every net (`tc` at primary outputs, `+inf` elsewhere) and push
    /// min candidates down the descending topo order, hoisting each
    /// gate's arc terms once — exactly [`crate::required_times`]'s walk
    /// run over the cached constants. Produces the same candidate
    /// multiset per net as the per-net drain kernel, so the same min and
    /// the same bits; used by the flush when every rank is marked, where
    /// the per-pin re-hoisting of the drain would cost more than this
    /// per-gate pass.
    fn sweep_required_full(&self, fwd: &ForwardState, bw: &mut BackwardState) {
        let nc = self.corner_libs.len();
        for net in 0..self.s.slot_of.len() {
            let base = self.s.slot_of[net] as usize * nc;
            let init = if self.s.is_po[net] {
                [bw.tc_ps; 2]
            } else {
                [f64::INFINITY; 2]
            };
            bw.required[base..base + nc].fill(init);
        }
        let ctx = self.eval_ctx();
        let mut view = bwd_view(fwd, bw.tc_ps, &mut bw.required);
        for pos in (0..self.s.topo.len()).rev() {
            view.sweep_gate(&ctx, pos);
        }
    }

    /// The drain-or-sweep rule, decided once per flush after the seed
    /// logs are marked into `set`: sweep now (`None`) when the marked
    /// count or the closure estimate reaches the budget — `n·3/4 + 1`
    /// gates forward, `n/3 + 1` backward — else drain, bailing to the
    /// sweep after the returned number of evaluations.
    ///
    /// A forward drain evaluates a gate just as the sweep does (arc
    /// terms hoisted once per gate), so the sweep only saves the set
    /// bookkeeping and wins when nearly every gate is dirty; for the
    /// same reason the forward drain never bails — bailing would re-pay
    /// the drained prefix inside the sweep. A backward drain re-hoists a
    /// fanout gate's arc terms once per *pin*, so it breaks even about a
    /// third of the way in and bails at its budget.
    ///
    /// The count underestimates a spread seed set whose cones close over
    /// nearly the whole circuit (the fabrics' drain loses from 0.25
    /// spread seeds on), so when ≥ 32 seeds hit at least half the levels
    /// of their span — up from the lowest dirty level forward, down from
    /// the highest backward — at ≥ ¼ density, the whole span is the
    /// estimate. On merged probe unions the convergence cut keeps true
    /// closures far below the span, and the count stays in charge.
    fn drain_limit(&self, set: &DirtySet, dir: Direction) -> Option<usize> {
        let n = self.s.topo.len();
        let (budget, limit) = match dir {
            Direction::Forward => (n * 3 / 4 + 1, usize::MAX),
            Direction::Backward => (n / 3 + 1, n / 3 + 1),
        };
        let count = set.count();
        if count >= budget {
            return None;
        }
        if count >= 32 {
            if let Some((lo, hi, hit)) = set.level_profile(&self.s.level_start) {
                let n_levels = self.s.level_start.len() - 1;
                let (levels, span) = match dir {
                    Direction::Forward => (n_levels - lo, n - self.s.level_start[lo] as usize),
                    Direction::Backward => (hi + 1, self.s.level_start[hi + 1] as usize),
                };
                if hit * 2 >= levels && count * 4 >= span && span >= budget {
                    return None;
                }
            }
        }
        Some(limit)
    }
}

/// The worst-slack index key of the net at `slot`: its worst finite
/// slack over every corner lane of the slot-major slabs.
pub(super) fn slack_key(
    required: &[[f64; 2]],
    arrival: &[[f64; 2]],
    nc: usize,
    slot: usize,
) -> f64 {
    let lanes = slot * nc..(slot + 1) * nc;
    WorstSlackIndex::key_over(&required[lanes.clone()], &arrival[lanes])
}

/// The backward kernels' view of one flush: the backward slabs to
/// write, over the settled forward state.
fn bwd_view<'v>(fwd: &'v ForwardState, tc_ps: f64, required: &'v mut [[f64; 2]]) -> BwdView<'v> {
    BwdView {
        required,
        slope: &fwd.slope,
        load: &fwd.load,
        tc_ps,
    }
}
