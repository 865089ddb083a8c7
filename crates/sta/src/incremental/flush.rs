//! The lazy flushes of a [`TimingGraph`]: its forward and backward
//! timing state and the drains and sweeps that settle it.
//!
//! # Lazy, query-driven flushing
//!
//! No mutation re-times anything. Mutations mark the gates to
//! re-evaluate in the forward dirty set — a resize also re-sums the
//! loads it moves — and bump the mutation **generation**; the first
//! query that needs settled state flushes it:
//!
//! ```text
//!           mutation (marks ∪= seeds, gen += 1)
//!        ┌──────────────────────────────────────┐
//!        ▼                                      │
//!   clean ──mutation──▶ dirty(gen) ──query──▶ flushed(gen) = clean
//! ```
//!
//! Every *forward* query, without exception (`critical_delay_ps`,
//! `arrival_ps`, `slope_ps`, `net_load_ff`, `gate_delay_worst_ps`,
//! `critical_path`, and every [`TimingView`](crate::TimingView) read),
//! drains one merged forward cone — or sweeps, see *Drain or sweep*
//! below. The slack read on a net that feeds no gate reads that net's
//! arrival, which depends on the driver's fanin cone alone, so it
//! drains only the marks inside that cone
//! (`TimingGraph::flush_forward_cone`) and leaves the rest to the next
//! full flush; its required time is the constraint at a primary output
//! and `+inf` elsewhere, whatever is pending, so it reads no backward
//! state at all. The flow reads one endpoint per path between the path
//! write-backs, and the write-backs' cones reach far past it: traced
//! `suite_tight` (seed 0) re-evaluates 424,517 gates per pass instead
//! of 1,165,760.
//!
//! The **backward** state is whole or stale. It records the generation
//! it was last swept at; a backward query — a slack or required time on
//! a net that feeds a gate, the design-worst slack — at any other
//! generation flushes forward first (required times derive from final
//! slopes and loads) and then runs one full gate-centric backward sweep
//! over the cached constants. A repeat read at the same generation
//! costs nothing, and mutations alone never flush either direction. The
//! flow reads the backward state only around structural edits and at
//! gate-fed endpoints, and decides the constraint from the forward
//! state ([`TimingGraph::meets_constraint`]), so these reads are rare
//! and follow mutations spread over the circuit, where a backward
//! dirty-cone drain would cut over to this sweep anyway. A structural
//! edit marks every gate forward and bumps the generation, so the next
//! query pays one full pass each way. The eager/lazy distinction is
//! invisible to every consumer — `tests/lazy_equivalence.rs` and
//! `tests/forward_lazy_equivalence.rs` prove any interleaving of
//! mutations and queries bit-identical to the eager semantics, and
//! [`UpdateStats::forward_flushes`](super::UpdateStats::forward_flushes) /
//! [`UpdateStats::backward_flushes`](super::UpdateStats::backward_flushes)
//! prove mutations alone never flush either direction.
//!
//! A forward evaluation stores arrivals and slopes only. After a flush
//! each stored value is what evaluating its gate now would give, so
//! `critical_path` and `gate_delay_worst_ps` re-run the kernel's arc
//! scan over the settled state and carry the full pass's bits.
//!
//! # Critical-output trees
//!
//! The forward state keeps one [`MinTree`] per corner over the primary
//! outputs, keyed by minus their later arrival ([`critical_key`]).
//! `forward_step` updates an output's leaves whenever its arrival
//! moves, in drains and cone flushes alike, and a full sweep rebuilds
//! the trees, so the critical delay never waits for a rescan: it is
//! minus the root after any forward flush.
//!
//! # Drain or sweep
//!
//! A forward flush drains the dirty set over topo positions with the
//! one drain loop of `crate::dirty`: positions pop in ascending
//! (dependency) order, each runs the forward kernel from
//! `crate::kernel`, and a changed output marks its fanouts. One rule,
//! `TimingGraph::sweep_beats_drain`, decides per flush when a straight
//! full sweep over the same kernel is cheaper; drain and sweep land on
//! the same bits.

use pops_delay::model::Edge;
use pops_netlist::NetId;

use super::structure::NO_LEAF;
use super::{Structure, TimingGraph};
use crate::analysis::{eidx, EDGES};
use crate::dirty::DirtySet;
use crate::kernel::{BwdView, EvalCtx, FwdView, F_ARRIVAL, F_OUT_CHANGED};
use crate::slack::{min2, MinTree};

/// Incrementally maintained forward timing state of a [`TimingGraph`]:
/// arrivals, slopes and loads plus the pending marks. Lives in a
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
    /// Capacitive load (fF) under the current sizing, slot-indexed —
    /// corner-*invariant* (corners derate only electrical parameters,
    /// never geometry), so this slab keeps stride 1.
    pub(super) load: Vec<f64>,
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
    /// drained in ascending order by the next forward query.
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
            load: vec![0.0; n_nets],
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
            load: &self.load,
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

/// The backward timing state of a [`TimingGraph`]: per-net required
/// times under a fixed constraint, whole as of one mutation generation
/// (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct BackwardState {
    /// The cycle constraint applied at every primary output (ps).
    pub(super) tc_ps: f64,
    /// `required[net][edge]` (ps), slot- and corner-indexed like the
    /// arrivals; `+inf` where unconstrained. Sized by the sweep.
    pub(super) required: Vec<[f64; 2]>,
    /// Generation ([`TimingGraph::gen`]) of the last sweep; `None`
    /// before the first. At any other generation the next backward
    /// query sweeps.
    pub(super) swept_gen: Option<u64>,
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
    /// [`TimingGraph::sweep_beats_drain`] says the cone covers most of
    /// the gates, a straight full topo sweep (no set bookkeeping, no
    /// fanout marking) finishes cheaper — and is bit-identical, because
    /// a topo-order pass gives every gate final fanin values and
    /// unchanged gates reproduce their cached bits exactly. The
    /// critical-output trees need nothing more: every step that moves an
    /// output's arrival updates its leaf.
    pub(super) fn flush_forward(&self) {
        let mut guard = self.fwd.borrow_mut();
        let fwd = &mut *guard;
        if fwd.dirty.is_empty() {
            return;
        }
        let n_gates = self.s.topo.len();

        let (reevals, cuts) = if self.sweep_beats_drain(&fwd.dirty) {
            self.full_forward_sweep(fwd);
            (n_gates, 0)
        } else {
            let ctx = self.eval_ctx();
            let (mut view, dirty, critical) = fwd.split();
            let done = dirty.drain(
                |pos| self.forward_step(&mut view, &ctx, Some(&mut *critical), pos),
                |pos, dirty| self.mark_fanouts(pos, dirty),
            );
            (done.evals, done.cuts)
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
            |pos| self.forward_step(&mut view, &ctx, Some(&mut *critical), pos),
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
    /// and the on-demand reads ([`crate::kernel`]) consume.
    pub(super) fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            s: &self.s,
            gate_params: &self.gate_params,
            n_corners: self.corner_libs.len(),
            vt_class: &self.vt_class,
            cins: self.sizing.as_slice(),
            libs: &self.corner_libs,
        }
    }

    /// Re-evaluate the gate at `pos`, update the output's
    /// critical-output leaves when `critical` is given and its arrival
    /// moved, and report whether its output moved.
    fn forward_step(
        &self,
        view: &mut FwdView<'_>,
        ctx: &EvalCtx<'_>,
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
        flags & F_OUT_CHANGED != 0
    }

    /// Evaluate every gate once in topological order — exactly the full
    /// pass of `analyze_with` — streaming the slabs in memory order,
    /// clear the dirty set it subsumes and rebuild the critical-output
    /// trees (one linear fold each instead of a root walk per output).
    pub(super) fn full_forward_sweep(&self, fwd: &mut ForwardState) {
        let ctx = self.eval_ctx();
        let (mut view, dirty, _) = fwd.split();
        dirty.clear();
        for pos in 0..self.s.topo.len() {
            self.forward_step(&mut view, &ctx, None, pos);
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

    /// The backward side of the lazy flush: a no-op when the required
    /// times were swept at the current mutation generation (or no
    /// constraint is set); otherwise the forward state flushes first —
    /// required times derive from final slopes and loads — and one full
    /// backward sweep re-derives every net.
    pub(super) fn flush_required(&self) {
        self.flush_forward();
        let mut guard = self.backward.borrow_mut();
        let Some(bw) = guard.as_mut().filter(|bw| bw.swept_gen != Some(self.gen)) else {
            return;
        };
        bw.swept_gen = Some(self.gen);
        self.sweep_required_full(&self.fwd.borrow(), bw);
        self.stat(|s| {
            s.backward_flushes += 1;
            s.required_reevaluated += self.s.slot_of.len();
        });
    }

    /// Gate-centric full backward pass into `bw.required`: size the slab
    /// to the structure, reinitialize every net (`tc` at primary
    /// outputs, `+inf` elsewhere) and push min candidates down the
    /// descending topo order, hoisting each gate's arc terms once —
    /// exactly [`crate::required_times`]'s walk run over the cached
    /// constants, so each net's required time is the min over the same
    /// candidate multiset, bit for bit.
    fn sweep_required_full(&self, fwd: &ForwardState, bw: &mut BackwardState) {
        let nc = self.corner_libs.len();
        let n_nets = self.s.slot_of.len();
        bw.required.resize(n_nets * nc, [f64::INFINITY; 2]);
        for net in 0..n_nets {
            let base = self.s.slot_of[net] as usize * nc;
            let init = if self.s.is_po[net] {
                [bw.tc_ps; 2]
            } else {
                [f64::INFINITY; 2]
            };
            bw.required[base..base + nc].fill(init);
        }
        let ctx = self.eval_ctx();
        let mut view = BwdView {
            required: &mut bw.required,
            slope: &fwd.slope,
            load: &fwd.load,
        };
        for pos in (0..self.s.topo.len()).rev() {
            view.sweep_gate(&ctx, pos);
        }
    }

    /// The drain-or-sweep rule, decided once per forward flush over the
    /// marks pending in `dirty`: sweep when the marked count or the
    /// closure estimate reaches `n·3/4 + 1` gates, else drain. A drain
    /// evaluates a gate just as the sweep does (arc terms hoisted once
    /// per gate), so the sweep only saves the set bookkeeping and wins
    /// when nearly every gate is dirty; for the same reason a drain,
    /// once started, runs to the end.
    ///
    /// The count underestimates a spread seed set whose cones close over
    /// nearly the whole circuit (the fabrics' drain loses from 0.25
    /// spread seeds on), so when ≥ 32 seeds hit at least half the levels
    /// from the lowest dirty level up, at ≥ ¼ density, the whole span is
    /// the estimate. On merged probe unions the convergence cut keeps
    /// true closures far below the span, and the count stays in charge.
    fn sweep_beats_drain(&self, dirty: &DirtySet) -> bool {
        let n = self.s.topo.len();
        let budget = n * 3 / 4 + 1;
        let count = dirty.count();
        if count >= budget {
            return true;
        }
        if count < 32 {
            return false;
        }
        dirty
            .level_profile(&self.s.level_start)
            .is_some_and(|(lo, hit)| {
                let levels = self.s.level_start.len() - 1 - lo;
                let span = n - self.s.level_start[lo] as usize;
                hit * 2 >= levels && count * 4 >= span && span >= budget
            })
    }
}
