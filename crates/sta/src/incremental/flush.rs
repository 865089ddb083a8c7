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
//! flush to the union cone. A slack or required-time read on a net that
//! feeds no gate needs none of it: no arc ends there, so its required
//! time is the constraint at a primary output and `+inf` elsewhere,
//! whatever is pending. Such reads (the flow's per-endpoint reads are
//! nearly all of them) flush forward only and leave the backward marks
//! to the next query that needs them.
//!
//! The **forward** state is lazy too. Mutations mark the gates to
//! re-evaluate in the forward dirty set — a resize also re-sums the
//! loads it moves — and every *forward* query, without exception
//! (`critical_delay_ps`, `arrival_ps`, `slope_ps`, `net_load_ff`,
//! `gate_delay_worst_ps`, `critical_path`, and every
//! [`TimingView`](crate::TimingView) read), drains one merged forward
//! cone — or sweeps, see *Drain or sweep* below. The slack read on a
//! net that feeds no gate reads that net's arrival, which depends on
//! the driver's fanin cone alone, so it drains only the marks inside that
//! cone (`TimingGraph::flush_forward_cone`) and leaves the rest to the
//! next full flush. The flow reads one endpoint per path between the
//! path write-backs, and the write-backs' cones reach far past it:
//! traced `suite_tight` (seed 0) re-evaluates 424,517 gates per pass
//! instead of 1,165,760. A structural edit
//! resets both states: every gate marked forward, the backward state
//! invalid, so the next query pays one full pass each way. Backward
//! queries are **two-phase**: they flush forward first (required times
//! re-derive from final slopes and loads), then drain the backward
//! marks the forward flush just deposited. The eager/lazy distinction
//! is invisible to every consumer — `tests/lazy_equivalence.rs` and
//! `tests/forward_lazy_equivalence.rs` prove any interleaving of
//! mutations and queries bit-identical to the eager semantics, and
//! [`UpdateStats::forward_flushes`](super::UpdateStats::forward_flushes) /
//! [`UpdateStats::backward_flushes`](super::UpdateStats::backward_flushes)
//! prove mutations alone never flush either direction.
//!
//! # Tournament trees
//!
//! `worst_slack_overall_ps` used to fold over all nets per query —
//! O(nets) even when nothing moved, which is exactly what broke even on
//! the small-circuit probes. The backward flush already knows every net
//! whose required time or arrival moved, so the graph maintains a
//! [`MinTree`]: per-net worst finite slacks at the leaves of a
//! tournament tree of partial minima. Each moved slack is an O(log
//! nets) leaf update folded in at flush time; the design-worst slack
//! query is then O(1) at the root, bit-identical to the full fold.
//!
//! The moved slacks are logged between backward flushes, and forward
//! flushes log one entry per moved arrival. A probe loop decided by
//! `TimingGraph::meets_constraint` runs thousands of forward flushes
//! and no backward one, so the log stops at a quarter of the nets and
//! schedules the wholesale refold the flush would pick past that size
//! anyway (`log_moved_slack`).
//!
//! The forward state keeps one more `MinTree` per corner, over the
//! primary outputs keyed by minus their later arrival
//! ([`critical_key`]). `forward_step` updates an output's leaves
//! whenever its arrival moves, in drains and cone flushes alike, and a
//! full sweep rebuilds the trees, so the critical delay never waits for
//! a rescan: it is minus the root after any forward flush.
//!
//! # Drain or sweep
//!
//! Every flush — forward and required times — drains a dirty set over
//! topo positions with the one drain loop of `crate::dirty`: positions
//! pop in dependency order (ascending forward, descending backward),
//! each runs its per-gate kernel from `crate::kernel`, and a changed
//! output marks the kernel's neighbours. One rule, `TimingGraph::drain_limit`, decides
//! per flush when a straight full sweep over the same kernels is
//! cheaper; drain and sweep land on the same bits.

use pops_delay::model::Edge;
use pops_netlist::{GateId, NetId};

use super::structure::NO_LEAF;
use super::{Structure, TimingGraph};
use crate::analysis::{eidx, EDGES};
use crate::dirty::{Direction, DirtySet, Drained};
use crate::kernel::{BwdView, EvalCtx, FwdView, PredPair, F_ARRIVAL, F_OUT_CHANGED, F_SLOPE};
use crate::slack::{min2, slack_key_over, MinTree};

/// Incrementally maintained forward timing state of a [`TimingGraph`]:
/// the floating-point arrays plus the pending marks. Lives in a
/// [`RefCell`](std::cell::RefCell) so forward queries on `&self` can
/// drain them.
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
    /// One critical-output tree per corner (corner-indexed): leaf `i`
    /// holds [`critical_key`] of primary output `pos[i]`, so the root is
    /// minus the corner's critical delay. Kept current by every forward
    /// step that moves an output's arrival, and rebuilt after every full
    /// sweep.
    pub(super) critical: Vec<MinTree>,
    /// Scratch bitset over topo positions: the fanin cone a cone flush
    /// drains, cleared after each.
    cone: Vec<u64>,
    /// Scratch stack of the cone walk.
    cone_stack: Vec<usize>,

    /// Gates to re-evaluate, by topo position: marked by the mutators,
    /// drained in ascending order by the next forward query (which
    /// deposits the backward marks the drained cone produces — backward
    /// flushes therefore run *after* it).
    pub(super) dirty: DirtySet,
}

impl ForwardState {
    /// A state with every gate output unreached, every load 0 and no
    /// mark, over the structure `s` with `nc` corners.
    pub(super) fn new(s: &Structure, nc: usize) -> Self {
        let (n_nets, n_gates) = (s.slot_of.len(), s.topo.len());
        ForwardState {
            arrival: vec![[f64::NEG_INFINITY; 2]; n_nets * nc],
            slope: vec![[0.0; 2]; n_nets * nc],
            pred: vec![[None, None]; n_nets * nc],
            load: vec![0.0; n_nets],
            gate_delay_worst: vec![0.0; n_gates * nc],
            critical: vec![MinTree::new(s.pos.len()); nc],
            cone: vec![0; n_gates.div_ceil(64)],
            cone_stack: Vec::new(),
            dirty: DirtySet::new(n_gates),
        }
    }

    /// The per-gate kernels' view of the slabs, beside the dirty set
    /// and the critical-output trees.
    fn split(&mut self) -> (FwdView<'_>, &mut DirtySet, &mut [MinTree]) {
        let view = FwdView {
            arrival: &mut self.arrival,
            slope: &mut self.slope,
            pred: &mut self.pred,
            load: &self.load,
            gate_delay_worst: &mut self.gate_delay_worst,
        };
        (view, &mut self.dirty, &mut self.critical)
    }
}

/// The critical-output tree key of a primary output's arrivals on one
/// corner: minus the later edge, `+inf` when neither edge is reached.
/// Negation is exact, so minus the root is that corner's latest output
/// arrival bit for bit.
pub(super) fn critical_key(arrival: [f64; 2]) -> f64 {
    min2(-arrival[0], -arrival[1])
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
    /// the worst-slack index) last flushed at; a mismatch means marks
    /// are pending and the next slack/required query drains them.
    pub(super) req_flushed_gen: u64,

    /// Nets whose arrival or required time moved: their worst-slack
    /// leaves re-fold. May repeat a net. Bounded at a quarter of the
    /// nets (see `log_moved_slack`).
    pub(super) slack_net_log: Vec<NetId>,

    /// Tournament tree over per-net worst finite slacks (root = design
    /// worst); see [`MinTree`].
    pub(super) worst: MinTree,
    /// Every slack may have moved (constraint change, structural edit, a
    /// log past its bound): rebuild the index wholesale at the next
    /// flush instead of per-leaf updates.
    pub(super) refold_all: bool,
}

impl BackwardState {
    /// A wholly invalid state under `tc_ps` over the structure `s` with
    /// `nc` corners: every net marked (so `drain_limit` picks the full
    /// sweep), a wholesale worst-slack refold scheduled, and flushed one
    /// generation behind `gen`, so the first backward query at `gen`
    /// runs one full backward pass.
    pub(super) fn invalid(tc_ps: f64, s: &Structure, nc: usize, gen: u64) -> Self {
        let full = |size| {
            let mut set = DirtySet::new(size);
            set.fill();
            set
        };
        let n_nets = s.slot_of.len();
        BackwardState {
            tc_ps,
            required: vec![[f64::INFINITY; 2]; n_nets * nc],
            req: full(s.topo.len()),
            req_src: full(s.n_src),
            req_flushed_gen: gen.wrapping_sub(1),
            slack_net_log: Vec::new(),
            worst: MinTree::new(n_nets),
            refold_all: true,
        }
    }

    /// Mark the required times that move with the arcs through `gate`
    /// alone (a new Vt class): its fanin nets'.
    pub(super) fn mark_fanins(&mut self, s: &Structure, gate: GateId) {
        for &slot in s.fanin_slots_of(gate) {
            mark_required(s, &mut self.req, &mut self.req_src, slot as usize);
        }
    }

    /// Mark the required times that move with a new drive of `gate`: its
    /// fanin nets', and its fanin drivers' fanin nets' (their output
    /// load moves with its C_IN).
    pub(super) fn mark_resized(&mut self, s: &Structure, gate: GateId) {
        self.mark_fanins(s, gate);
        for &slot in s.fanin_slots_of(gate) {
            if let Some(pos) = (slot as usize).checked_sub(s.n_src) {
                for &d in s.fanin_slots_of(s.topo[pos]) {
                    mark_required(s, &mut self.req, &mut self.req_src, d as usize);
                }
            }
        }
    }
}

/// Log `net` for the worst-slack re-fold — unless the next flush already
/// refolds every leaf. Past a quarter of the nets the flush refolds
/// wholesale anyway, so the log stops there: it sets `refold_all` and
/// empties. Forward flushes log one entry per moved arrival while the
/// backward flush waits for a read that may never come (a probe loop
/// decided by [`TimingGraph::meets_constraint`]), and this keeps that
/// log at O(nets); the results are the same bits, since the tree is a
/// function of its leaves.
fn log_moved_slack(log: &mut Vec<NetId>, refold_all: &mut bool, net: NetId, n_nets: usize) {
    if *refold_all {
        return;
    }
    log.push(net);
    if log.len() > n_nets / 4 {
        *refold_all = true;
        log.clear();
    }
}

/// Mark the net at `slot` required-dirty: a driven net under its
/// driver's topo position, a driverless one in the source set.
fn mark_required(s: &Structure, req: &mut DirtySet, req_src: &mut DirtySet, slot: usize) {
    match slot.checked_sub(s.n_src) {
        Some(pos) => req.mark(pos),
        None => req_src.mark(slot),
    }
}

impl TimingGraph<'_> {
    // ---- forward internals ----

    /// Set every net's load in `fwd` under the current sizing and the
    /// primary inputs' arrivals (0) and slopes (the input transition) on
    /// every corner, and fold those arrivals into the critical-output
    /// trees: the starting point of a full forward pass, shared by
    /// construction and [`TimingGraph::apply_edits`].
    pub(super) fn init_forward(&self, fwd: &mut ForwardState) {
        for net in 0..self.s.slot_of.len() {
            fwd.load[self.s.slot_of[net] as usize] =
                self.s.net_load(net, &self.sizing, self.options.po_load_ff);
        }
        let nc = self.corner_libs.len();
        for pi in self.circuit.primary_inputs() {
            let slot = self.slot(*pi);
            // Source conditions are corner-invariant (options, not
            // process): every corner lane starts identically.
            for c in 0..nc {
                fwd.arrival[slot * nc + c] = [0.0; 2];
                fwd.slope[slot * nc + c] = [self.options.input_transition_ps; 2];
            }
        }
        self.rebuild_critical(fwd);
    }

    /// The forward side of the lazy flush: a no-op when no gate is
    /// marked. Otherwise one merged propagation covers every mutation
    /// since the last forward query: the dirty set drains in ascending
    /// position order, stopping where a gate's re-evaluated output is
    /// bit-identical to its cached state. When
    /// [`TimingGraph::drain_limit`] says the cone covers most of the
    /// gates, a straight full topo sweep (no set bookkeeping, no fanout
    /// marking) finishes cheaper — and is bit-identical, because a
    /// topo-order pass gives every gate final fanin values and unchanged
    /// gates reproduce their cached bits exactly. Backward
    /// cones are *not* drained here — the marks the walk deposits into
    /// the backward state (slope and arrival changes) stay pending
    /// until the next backward query's lazy flush. The critical-output
    /// trees need nothing more: every step that moves an output's
    /// arrival updates its leaf.
    pub(super) fn flush_forward(&self) {
        let mut guard = self.fwd.borrow_mut();
        let fwd = &mut *guard;
        if fwd.dirty.is_empty() {
            return;
        }
        let mut bw_guard = self.backward.borrow_mut();
        let mut bw = bw_guard.as_mut();
        let n_gates = self.s.topo.len();

        let (reevals, cuts) = match self.drain_limit(&fwd.dirty, Direction::Forward) {
            None => {
                self.full_forward_sweep(fwd, bw);
                (n_gates, 0)
            }
            Some(limit) => {
                let ctx = self.eval_ctx();
                let (mut view, dirty, critical) = fwd.split();
                let done = dirty.drain(
                    Direction::Forward,
                    limit,
                    |pos| self.forward_step(&mut view, &ctx, &mut bw, Some(&mut *critical), pos),
                    |pos, dirty| self.mark_fanouts(pos, dirty),
                );
                (done.evals, done.cuts)
            }
        };
        self.stat(|s| {
            s.forward_flushes += 1;
            s.gates_reevaluated += reevals;
            s.converged_early += cuts;
        });
    }

    /// The forward flush one read of the net at `slot` needs: drain
    /// only the marks in the driver's fanin cone, in ascending order.
    /// A gate's timing depends on its fanin cone alone, and the cone is
    /// closed under fanin, so the net reads the bits of a full flush;
    /// the marks outside the cone stay for the next full flush, which
    /// merges them with whatever is marked meanwhile. The walk stops
    /// below the lowest mark, where nothing is stale. Counted as a
    /// forward flush when it evaluates a gate.
    pub(super) fn flush_forward_cone(&self, slot: usize) {
        let mut guard = self.fwd.borrow_mut();
        let fwd = &mut *guard;
        let lo = fwd.dirty.low_bound();
        let Some(target) = slot.checked_sub(self.s.n_src).filter(|&p| p >= lo) else {
            return;
        };
        let mut bw_guard = self.backward.borrow_mut();
        let mut bw = bw_guard.as_mut();
        let (mut cone, mut stack) = (
            std::mem::take(&mut fwd.cone),
            std::mem::take(&mut fwd.cone_stack),
        );
        cone[target / 64] |= 1 << (target % 64);
        stack.push(target);
        while let Some(pos) = stack.pop() {
            for &fanin in self.s.fanin_slots_of(self.s.topo[pos]) {
                let Some(p) = (fanin as usize).checked_sub(self.s.n_src) else {
                    continue;
                };
                let bit = 1 << (p % 64);
                if p >= lo && cone[p / 64] & bit == 0 {
                    cone[p / 64] |= bit;
                    stack.push(p);
                }
            }
        }

        let ctx = self.eval_ctx();
        let (mut view, dirty, critical) = fwd.split();
        let done = dirty.drain_within(
            &cone,
            target,
            |pos| self.forward_step(&mut view, &ctx, &mut bw, Some(&mut *critical), pos),
            |pos, dirty| self.mark_fanouts(pos, dirty),
        );
        cone[lo / 64..=target / 64].fill(0);
        (fwd.cone, fwd.cone_stack) = (cone, stack);
        if done.evals > 0 {
            self.stat(|s| {
                s.forward_flushes += 1;
                s.gates_reevaluated += done.evals;
                s.converged_early += done.cuts;
            });
        }
    }

    /// Mark the gates reading the output of the gate at `pos`.
    fn mark_fanouts(&self, pos: usize, dirty: &mut DirtySet) {
        let out = self.s.out_net[self.s.topo[pos].index()].index();
        let (lo, hi) = (self.s.fanout_off[out], self.s.fanout_off[out + 1]);
        for &g in &self.s.fanout[lo as usize..hi as usize] {
            dirty.mark(self.pos(g));
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

    /// Re-evaluate the gate at `pos`, deposit the lazy backward marks
    /// its change flags call for — arcs *from* the output net move with
    /// its slope, the net's worst-slack leaf with its arrival — update
    /// the output's critical-output leaves when `critical` is given and
    /// its arrival moved, and report whether its output moved.
    fn forward_step(
        &self,
        view: &mut FwdView<'_>,
        ctx: &EvalCtx<'_>,
        bw: &mut Option<&mut BackwardState>,
        critical: Option<&mut [MinTree]>,
        pos: usize,
    ) -> bool {
        let flags = view.eval_gate(ctx, pos);
        // The output net sits at slot `n_src + pos`.
        let slot = self.s.n_src + pos;
        if let Some(critical) = critical {
            let leaf = self.s.po_leaf[slot];
            if flags & F_ARRIVAL != 0 && leaf != NO_LEAF {
                let nc = critical.len();
                for (c, tree) in critical.iter_mut().enumerate() {
                    tree.update(leaf as usize, critical_key(view.arrival[slot * nc + c]));
                }
            }
        }
        if let Some(bw) = bw.as_deref_mut() {
            if flags & F_SLOPE != 0 {
                // The output net's required-time key is the gate's own
                // position.
                bw.req.mark(pos);
            }
            if flags & F_ARRIVAL != 0 {
                let net = self.s.out_net[self.s.topo[pos].index()];
                let n_nets = self.s.slot_of.len();
                log_moved_slack(&mut bw.slack_net_log, &mut bw.refold_all, net, n_nets);
            }
        }
        flags & F_OUT_CHANGED != 0
    }

    /// Evaluate every gate once in topological order — exactly the full
    /// pass of `analyze_with` — streaming the slabs in memory order,
    /// clear the dirty set it subsumes and rebuild the critical-output
    /// trees (one linear fold each instead of a root walk per output).
    pub(super) fn full_forward_sweep(
        &self,
        fwd: &mut ForwardState,
        mut bw: Option<&mut BackwardState>,
    ) {
        let ctx = self.eval_ctx();
        let (mut view, dirty, _) = fwd.split();
        dirty.clear();
        for pos in 0..self.s.topo.len() {
            self.forward_step(&mut view, &ctx, &mut bw, None, pos);
        }
        self.rebuild_critical(fwd);
    }

    /// The critical-output tree keys of corner `c`, in leaf order.
    pub(super) fn critical_keys(&self, fwd: &ForwardState, c: usize) -> Vec<f64> {
        let nc = self.corner_libs.len();
        self.s
            .pos
            .iter()
            .map(|&po| critical_key(fwd.arrival[self.slot(po) * nc + c]))
            .collect()
    }

    /// Rebuild every corner's critical-output tree from the arrivals.
    fn rebuild_critical(&self, fwd: &mut ForwardState) {
        for c in 0..self.corner_libs.len() {
            let keys = self.critical_keys(fwd, c);
            fwd.critical[c].rebuild(&keys);
        }
    }

    /// The first primary output and edge, in declaration order, whose
    /// arrival on `corner` is the latest — the full pass's scan and tie
    /// rule; `None` when no output is reached.
    pub(super) fn critical_output(
        &self,
        fwd: &ForwardState,
        corner: usize,
    ) -> Option<(NetId, Edge)> {
        let nc = self.corner_libs.len();
        let mut critical: Option<(NetId, Edge, f64)> = None;
        for &po in &self.s.pos {
            for e in EDGES {
                let t = fwd.arrival[self.slot(po) * nc + corner][eidx(e)];
                if t > critical.map(|(_, _, cr)| cr).unwrap_or(f64::NEG_INFINITY) {
                    critical = Some((po, e, t));
                }
            }
        }
        critical.map(|(n, e, _)| (n, e))
    }

    // ---- backward internals ----

    /// The backward side of the lazy flush: drain the accumulated
    /// required marks in *descending* position order, then fold the
    /// moved slacks into the worst-slack index. A no-op when that state
    /// already reflects the current mutation generation; otherwise one
    /// merged reverse propagation covers every mutation since the last
    /// slack/required query. **Two-phase**: the forward state flushes
    /// first — required times derive from final slopes and loads, and
    /// the forward drain is what deposits this flush's arrival/slope
    /// marks. Propagation stops where a recomputed required time is
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

        let n_nets = self.s.slot_of.len();
        let BackwardState {
            tc_ps,
            required,
            req,
            req_src,
            slack_net_log,
            refold_all,
            ..
        } = &mut *bw;
        let drained = self.drain_limit(req, Direction::Backward).map(|limit| {
            let ctx = self.eval_ctx();
            let mut view = bwd_view(&fwd, *tc_ps, required);
            let mut eval = |slot: usize| {
                let net = self.net_at(slot);
                let changed = view.eval_required_net(&ctx, net.index(), slot);
                if changed {
                    log_moved_slack(slack_net_log, refold_all, net, n_nets);
                }
                changed
            };
            let mut done = req.drain(
                Direction::Backward,
                limit,
                |pos| eval(self.s.n_src + pos),
                |pos, req| {
                    for &slot in self.s.fanin_slots_of(self.s.topo[pos]) {
                        mark_required(&self.s, req, req_src, slot as usize);
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
        // once per query — so the log stops there and asks for it
        // (`log_moved_slack`).
        // Leaves are keyed by *slot* — a bijection of the nets, so the
        // root min folds the same value multiset as a net-keyed tree
        // (bit-identical worst).
        let nc = self.corner_libs.len();
        if bw.refold_all {
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

    /// The drain-or-sweep rule, decided once per flush over the marks
    /// pending in `set`: sweep now (`None`) when the marked
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
    slack_key_over(&required[lanes.clone()], &arrival[lanes])
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
