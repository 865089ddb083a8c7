//! Incremental static timing analysis: dirty-cone re-propagation.
//!
//! The optimization protocol is an iterative loop — classify, resize,
//! re-time, repeat — and a single gate resize only perturbs its fanin
//! nets' loads and its downstream fanout cone. A [`TimingGraph`] is
//! built once per circuit (caching the topological order, per-gate topo
//! rank and per-net loads) and then kept consistent through mutators
//! ([`TimingGraph::resize_gate`], [`TimingGraph::set_vt_class`]) that
//! re-evaluate only the affected cone, in rank order, stopping as soon
//! as re-propagated arrivals and slopes converge onto their cached
//! values. A structural edit ([`TimingGraph::apply_edits`]) rebuilds
//! the circuit-derived arrays and resets the timing state, so the next
//! query runs one full pass in each direction. The options (latch load,
//! input slope) are fixed at construction.
//!
//! This file holds the type, its constructors, mutators and queries.
//! The child modules hold the rest: `structure` (the circuit-derived
//! arrays and their one constructor, and the slab layout), `flush` (the
//! forward and backward states, the lazy flushes, the full sweeps and
//! the forward drain-or-sweep rule), `surgery` ([`TimingGraph::apply_edits`])
//! and `audit` ([`TimingGraph::verify_state`]). The per-gate kernels and
//! their cached model constants are in `crate::kernel`.
//!
//! # Equivalence contract
//!
//! After any sequence of mutations the queryable state is **bit-identical**
//! to a from-scratch [`analyze_with`](crate::analysis::analyze_with) under
//! the same sizing and options:
//!
//! * a re-evaluated gate runs exactly the per-gate step of the full pass
//!   (same arc order, same comparison, same floating-point operations);
//! * net loads are recomputed by the same summation in the same order,
//!   never by error-accumulating deltas;
//! * gates are re-evaluated in topological-rank order, so every gate sees
//!   final fanin values, and a gate whose fanin arrivals/slopes are
//!   bit-unchanged is provably unaffected and cut off (its stored state
//!   *is* what the full pass would recompute).
//!
//! The randomized equivalence suite (`tests/incremental_equivalence.rs`)
//! asserts this against `analyze()` after every step of random resize
//! sequences.
//!
//! # Backward state: required times and slack
//!
//! After [`TimingGraph::set_constraint`] the graph also answers the
//! per-net required times under that constraint (the
//! [`required_times`](crate::required_times) state). They are kept
//! whole, not incrementally: a backward read at a mutation generation
//! the required times were not swept at runs one full gate-centric
//! backward sweep over the cached constants (after the forward flush),
//! and repeat reads are free until the next mutation. The flow reads
//! them rarely — around structural edits, at endpoints that feed gates
//! and inside [`TimingGraph::meets_constraint`]'s rounding band — and
//! after mutations spread over the circuit, so a backward dirty-cone
//! drain would buy it nothing. `tests/backward_equivalence.rs` and
//! `tests/lazy_equivalence.rs` assert bit-identity against a fresh
//! [`crate::required_times`] after every step of random mutation
//! sequences.
//!
//! # Deciding the constraint from the forward state
//!
//! One tournament tree per corner over the primary outputs keeps the
//! latest output arrival: every forward step that moves an output's
//! arrival updates its leaf, so [`TimingGraph::critical_delay_ps`] is
//! an O(1) root read after any forward flush, cone flushes included.
//! [`TimingGraph::meets_constraint`] compares that arrival, over all
//! corners, with the constraint, and answers the sign of the
//! design-worst slack bit for bit, flushing the backward state only
//! inside a proven rounding band below the constraint. A probe loop
//! decided this way (the flow's Vt pass) pays its forward cones only;
//! the backward state stays stale until the next slack read.
//!
//! # Derived on demand
//!
//! The forward state keeps arrivals, slopes and loads only:
//! [`TimingGraph::critical_path`] re-runs the forward kernel's arc scan
//! at each stage of its traceback, and
//! [`TimingGraph::gate_delay_worst_ps`] folds that scan's arc delays per
//! call. The k-paths completion bounds are not maintained either: the
//! flow reads them once per round, after resizes spread over the whole
//! circuit, so a maintained copy would re-derive every gate anyway.
//! [`k_most_critical_paths`](crate::k_most_critical_paths) derives them
//! per call with [`completion_bounds`](crate::completion_bounds) over
//! this graph's worst gate delays.

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::ops::Range;

use pops_delay::{CornerSet, Library};
use pops_netlist::{Circuit, GateId, NetId, NetlistError, VtClass};

use crate::analysis::{eidx, AnalyzeOptions, EdgeDir, NetlistPath, TimingView};
use crate::error::StaError;
use crate::kernel::{build_gate_params, gate_params_for, GateParams};
use crate::sizing::Sizing;
use crate::slack::{min2, worst_slack_of};

mod audit;
mod flush;
mod structure;
mod surgery;

use flush::{BackwardState, ForwardState};
use structure::build_structure;
pub(crate) use structure::Structure;

/// Cumulative work counters, for benchmarks and cone-size assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Gate re-evaluations performed since construction (the full
    /// initial pass is not counted).
    pub gates_reevaluated: usize,
    /// Re-evaluations whose output was bit-unchanged, cutting the cone.
    pub converged_early: usize,
    /// Mutator calls (resize batches, Vt swaps, edit plans) processed.
    pub updates: usize,
    /// Per-net required-time re-evaluations: every backward flush is a
    /// full sweep and counts one per net.
    pub required_reevaluated: usize,
    /// Always 0: the graph no longer maintains k-paths completion
    /// bounds ([`crate::k_most_critical_paths`] derives them per call).
    /// Kept only for callers that still read the field.
    pub completion_reevaluated: usize,
    /// Structural edits applied through [`TimingGraph::apply_edits`].
    pub structural_edits: usize,
    /// Lazy forward flushes actually performed — one per *query* that
    /// found forward marks pending (a fanout-free slack read: marks in
    /// its fanin cone), never one per mutation (see the module docs'
    /// state machine). A mutation that marks nothing forward (e.g. a
    /// constraint change) costs no flush.
    pub forward_flushes: usize,
    /// Lazy backward flushes actually performed — one full sweep per
    /// *query* that found the backward state behind the mutation
    /// generation, never one per mutation (see the module docs' state
    /// machine).
    pub backward_flushes: usize,
}

/// Incrementally maintained timing state of one circuit.
///
/// Holds the circuit and library by reference; all sizing state lives
/// inside the graph (query it with [`TimingGraph::sizing`]).
///
/// # Example
///
/// ```
/// use pops_netlist::builders::ripple_carry_adder;
/// use pops_delay::Library;
/// use pops_sta::analysis::analyze;
/// use pops_sta::incremental::TimingGraph;
/// use pops_sta::Sizing;
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let c = ripple_carry_adder(8);
/// let lib = Library::cmos025();
/// let sizing = Sizing::minimum(&c, &lib);
/// let mut graph = TimingGraph::new(&c, &lib, &sizing)?;
/// let before = graph.critical_delay_ps();
///
/// // Resize one gate: only its cone is re-timed.
/// let g = graph.critical_path().gates[0];
/// graph.resize_gate(g, 4.0 * lib.min_drive_ff());
/// let after = graph.critical_delay_ps();
/// assert_ne!(before, after);
///
/// // The state matches a fresh full analysis bit-for-bit.
/// let fresh = analyze(&c, &lib, graph.sizing())?;
/// assert_eq!(fresh.critical_delay_ps(), after);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimingGraph<'c> {
    /// The circuit being timed. Starts borrowed; the first
    /// [`TimingGraph::apply_edits`] clones it into an owned netlist the
    /// graph can mutate (structural write-back), after which
    /// [`TimingGraph::circuit`] is the authoritative netlist.
    circuit: Cow<'c, Circuit>,
    lib: &'c Library,
    options: AnalyzeOptions,
    sizing: Sizing,
    /// Topology, adjacency and slot layout of `circuit`, rebuilt
    /// wholesale by every structural edit.
    s: Structure,

    /// Flattened model constants per (gate, corner), corner-innermost:
    /// gate `gi` at corner `c` is `gate_params[gi * n_corners + c]`
    /// (see [`GateParams`]).
    gate_params: Vec<GateParams>,
    /// One characterized library per process corner. Corner 0 is the
    /// *primary* corner — the one every plain (non-`_corner`) query
    /// reads; a single-corner graph holds exactly `[lib.clone()]`, so
    /// every stride-1 slab index is an identity and the state is
    /// bit-identical to the pre-corner engine.
    corner_libs: Vec<Library>,
    /// Vt variant per gate (id-indexed, like [`Sizing`]); gates created
    /// by surgery enter as the default [`VtClass::Svt`].
    vt_class: Vec<VtClass>,
    /// No arc delay can be negative: every gate's constants are
    /// non-negative (the input slope and the latch load are, by
    /// construction). The rounding bound behind
    /// [`TimingGraph::meets_constraint`]'s early "met" answer rests on
    /// it.
    delays_nonnegative: bool,

    /// Mutation generation: bumped by every state-changing mutator
    /// (resize batches, Vt swaps, structural edits). The backward state
    /// records the generation it was last swept at; the pair implements
    /// its lazy clean → stale(gen) → swept cycle.
    gen: u64,
    /// Maintained forward state (arrivals, slopes, loads) plus its
    /// pending marks. Interior-mutable so `&self` queries can perform
    /// the lazy flush — mutators go through `get_mut` (no runtime
    /// borrow), queries borrow-check at runtime but never nest a
    /// mutable borrow under a shared one.
    fwd: RefCell<ForwardState>,
    /// Backward state; `None` until [`TimingGraph::set_constraint`].
    /// Interior-mutable as `fwd`.
    backward: RefCell<Option<BackwardState>>,
    stats: Cell<UpdateStats>,
}

impl<'c> TimingGraph<'c> {
    /// Build the graph and run the initial full timing pass under
    /// default [`AnalyzeOptions`].
    ///
    /// # Errors
    ///
    /// Propagates netlist structural errors (cycles, undriven nets) from
    /// [`Circuit::topo_order`]; [`NetlistError::InvalidId`] when `sizing`
    /// does not have exactly one entry per gate of `circuit`;
    /// [`NetlistError::InvalidParameter`] for options that are NaN,
    /// infinite or negative (see [`crate::analysis::analyze_with`]).
    pub fn new(
        circuit: &'c Circuit,
        lib: &'c Library,
        sizing: &Sizing,
    ) -> Result<Self, NetlistError> {
        Self::with_options(circuit, lib, sizing, &AnalyzeOptions::default())
    }

    /// [`TimingGraph::new`] with explicit options.
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::new`].
    pub fn with_options(
        circuit: &'c Circuit,
        lib: &'c Library,
        sizing: &Sizing,
        options: &AnalyzeOptions,
    ) -> Result<Self, NetlistError> {
        Self::build(circuit, lib, vec![lib.clone()], sizing, options)
    }

    /// Build a **multi-corner** graph: one characterized library per
    /// [`CornerSet`] corner, with every forward/backward slab widened to
    /// a fixed-stride per-corner array propagated together in one pass —
    /// same dirty-cone drain, same lazy flushes. Corner
    /// 0 (the set's primary corner) is what every plain query reads; the
    /// `*_corner` query variants view the rest, and
    /// [`TimingGraph::worst_slack_overall_ps`] becomes the
    /// worst **over all corners**. Every per-corner lane is bit-identical
    /// to an independent single-corner graph built on that corner's
    /// library (`tests/corner_equivalence.rs` proves it differentially).
    ///
    /// `lib` remains the geometry reference (drive floors); corners
    /// derate only electrical parameters, so it agrees with every
    /// corner's geometry.
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::new`].
    pub fn with_corners(
        circuit: &'c Circuit,
        lib: &'c Library,
        sizing: &Sizing,
        options: &AnalyzeOptions,
        corners: &CornerSet,
    ) -> Result<Self, NetlistError> {
        let corner_libs = corners.iter().map(|p| Library::new(p.clone())).collect();
        Self::build(circuit, lib, corner_libs, sizing, options)
    }

    fn build(
        circuit: &'c Circuit,
        lib: &'c Library,
        corner_libs: Vec<Library>,
        sizing: &Sizing,
        options: &AnalyzeOptions,
    ) -> Result<Self, NetlistError> {
        sizing.check_covers(circuit)?;
        options.check()?;
        let vt_class = vec![VtClass::Svt; circuit.gate_count()];
        let gate_params = build_gate_params(circuit, &corner_libs, &vt_class);
        let s = build_structure(circuit)?;
        let fwd = ForwardState::new(&s, corner_libs.len());

        let graph = TimingGraph {
            circuit: Cow::Borrowed(circuit),
            lib,
            options: options.clone(),
            sizing: sizing.clone(),
            s,
            delays_nonnegative: gate_params.iter().all(GateParams::delays_nonnegative),
            gate_params,
            corner_libs,
            vt_class,
            gen: 0,
            fwd: RefCell::new(fwd),
            backward: RefCell::new(None),
            stats: Cell::new(UpdateStats::default()),
        };
        // Initial timing: evaluate every gate once in topological order
        // — exactly the full pass of `analyze_with`. Not counted in the
        // incremental-work stats.
        {
            let mut fwd = graph.fwd.borrow_mut();
            graph.init_forward(&mut fwd);
            graph.full_forward_sweep(&mut fwd);
        }
        Ok(graph)
    }

    /// The circuit this graph times. After [`TimingGraph::apply_edits`]
    /// this is the graph's own edited copy — the authoritative netlist
    /// for every id the graph hands out.
    pub fn circuit(&self) -> &Circuit {
        self.circuit.as_ref()
    }

    /// The current sizing (the graph owns its copy; mutate it through
    /// [`TimingGraph::resize_gate`]).
    pub fn sizing(&self) -> &Sizing {
        &self.sizing
    }

    /// The options the timing state currently reflects.
    pub fn options(&self) -> &AnalyzeOptions {
        &self.options
    }

    /// Cumulative incremental-work counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats.get()
    }

    /// Read-modify-write one or more stat counters (the counters sit in
    /// a [`Cell`] so the `&self` lazy flush can account its work too).
    fn stat(&self, f: impl FnOnce(&mut UpdateStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    // ---- worker-pool shims ----
    //
    // Inert: none of these changes what any query returns or bumps the
    // mutation generation.

    /// Always 1: every flush is sequential. Kept only for callers
    /// written against the removed worker pool.
    pub fn threads(&self) -> usize {
        1
    }

    /// Does nothing: every flush is sequential. Kept only for callers
    /// written against the removed worker pool.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Always `usize::MAX`: no graph is large enough for a parallel
    /// flush. Kept only for callers written against the removed worker
    /// pool.
    pub fn parallel_threshold(&self) -> usize {
        usize::MAX
    }

    /// Slab slot of a net's timing state.
    #[inline]
    fn slot(&self, net: NetId) -> usize {
        self.s.slot_of[net.index()] as usize
    }

    /// Topo position of a gate.
    #[inline]
    fn pos(&self, gate: GateId) -> usize {
        self.s.rank[gate.index()] as usize
    }

    /// Number of process corners the graph maintains (the stride of
    /// every per-corner slab; 1 for [`TimingGraph::new`] graphs).
    #[inline]
    pub fn n_corners(&self) -> usize {
        self.corner_libs.len()
    }

    /// 0-based level of a topo position (`level_start` is sorted; empty
    /// levels cannot occur, but repeated starts would resolve correctly
    /// anyway).
    fn level_of(&self, pos: u32) -> usize {
        self.s.level_start.partition_point(|&s| s <= pos) - 1
    }

    /// Set one gate's input capacitance. The affected cone — the gate
    /// itself, the drivers of its fanin nets (their loads changed) and
    /// every downstream gate whose arrival or slope actually moves — is
    /// re-timed *lazily* by the first timing query.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range or `cin_ff` is not finite
    /// and positive (the [`TimingGraph::try_resize_gates`] rejections).
    pub fn resize_gate(&mut self, gate: GateId, cin_ff: f64) {
        self.resize_gates([(gate, cin_ff)]);
    }

    /// Apply a batch of resizes. Nothing re-times here: each change
    /// re-sums the loads of the gate's fanin nets and marks the gates it
    /// moves, and the first timing query drains
    /// every batch since the last query in one merged rank-ordered
    /// propagation — cheaper than per-mutation flushes whenever the
    /// cones overlap (writing back a whole optimized path, a sensitivity
    /// round's probes).
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::resize_gate`].
    pub fn resize_gates(&mut self, changes: impl IntoIterator<Item = (GateId, f64)>) {
        self.try_resize_gates(changes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`TimingGraph::resize_gates`]: the whole batch
    /// is validated *before* any entry is applied, so a rejected batch
    /// leaves the graph bit-identical to the state before the call —
    /// no half-applied mutation, no mark, no generation bump.
    ///
    /// # Errors
    ///
    /// [`StaError::GateOutOfRange`] for a gate id past the graph's gate
    /// count; [`StaError::InvalidDrive`] for a capacitance that is NaN,
    /// infinite, zero or negative — values that would poison the corner
    /// slabs where the bitwise convergence cuts never fire.
    pub fn try_resize_gates(
        &mut self,
        changes: impl IntoIterator<Item = (GateId, f64)>,
    ) -> Result<(), StaError> {
        let changes: Vec<(GateId, f64)> = changes.into_iter().collect();
        let n_gates = self.s.rank.len();
        for &(gate, cin_ff) in &changes {
            if gate.index() >= n_gates {
                return Err(StaError::GateOutOfRange {
                    gate: gate.index(),
                    n_gates,
                });
            }
            if !cin_ff.is_finite() || cin_ff <= 0.0 {
                return Err(StaError::InvalidDrive {
                    gate: gate.index(),
                    cin_ff,
                });
            }
        }
        let mut any = false;
        for (gate, cin_ff) in changes {
            // Re-assigning an identical size is a no-op (and must not
            // dirty anything); `replace` folds the compare and the set
            // into one bounds-checked access.
            if self.sizing.replace(gate, cin_ff) == cin_ff {
                continue;
            }
            any = true;
            // Forward: the fanin nets' loads moved with the gate's C_IN
            // (re-summed here, in full, never by deltas), so their
            // drivers re-time, and the gate's own drive changed.
            let fwd = self.fwd.get_mut();
            let gi = gate.index();
            for i in self.s.fanin_off[gi] as usize..self.s.fanin_off[gi + 1] as usize {
                let net = self.s.fanin[i].index();
                fwd.load[self.s.fanin_slots[i] as usize] =
                    self.s.net_load(net, &self.sizing, self.options.po_load_ff);
                if let Some(driver) = self.s.net_driver[net] {
                    fwd.dirty.mark(self.s.rank[driver.index()] as usize);
                }
            }
            fwd.dirty.mark(self.s.rank[gi] as usize);
        }
        if any {
            self.gen = self.gen.wrapping_add(1);
            self.stat(|s| s.updates += 1);
        }
        Ok(())
    }

    /// Re-implement one gate in a different Vt variant (LVT/SVT/HVT).
    /// Electrically this rescales the gate's drive and thresholds on
    /// every corner (leakage rescales with it — see
    /// [`pops_delay::power::leakage_nw`]); geometry and loads are
    /// untouched, so only the gate's own arcs move. Like a resize, the
    /// affected cones re-time *lazily* at the next query.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    pub fn set_vt_class(&mut self, gate: GateId, class: VtClass) {
        self.try_set_vt_class(gate, class)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`TimingGraph::set_vt_class`].
    ///
    /// # Errors
    ///
    /// [`StaError::GateOutOfRange`] for a gate id past the graph's gate
    /// count; the graph is untouched on error.
    pub fn try_set_vt_class(&mut self, gate: GateId, class: VtClass) -> Result<(), StaError> {
        let gi = gate.index();
        if gi >= self.vt_class.len() {
            return Err(StaError::GateOutOfRange {
                gate: gi,
                n_gates: self.vt_class.len(),
            });
        }
        if self.vt_class[gi] == class {
            return Ok(());
        }
        self.vt_class[gi] = class;
        let nc = self.corner_libs.len();
        for (c, lib) in self.corner_libs.iter().enumerate() {
            let params = gate_params_for(lib, self.s.cell[gi], class);
            self.delays_nonnegative &= params.delays_nonnegative();
            self.gate_params[gi * nc + c] = params;
        }
        // The gate's delay, slope and arrival all re-derive (loads are
        // untouched — no fanin-driver re-time needed).
        let pos = self.pos(gate);
        self.fwd.get_mut().dirty.mark(pos);
        self.gen = self.gen.wrapping_add(1);
        self.stat(|s| s.updates += 1);
        Ok(())
    }

    // ---- query surface (mirrors `TimingReport`) ----
    //
    // Every forward query is a flushing query: it first drains the
    // pending marks (one merged forward cone for everything since the
    // last query), then answers from the settled state.

    /// Worst arrival time over all primary outputs (ps), on the primary
    /// corner; 0 when no output is reached.
    pub fn critical_delay_ps(&self) -> f64 {
        self.critical_delay_ps_corner(0)
    }

    /// [`TimingGraph::critical_delay_ps`] on one corner. O(1) after the
    /// forward flush: minus the root of the corner's critical-output
    /// tree, which every forward step that moves an output's arrival
    /// keeps current.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn critical_delay_ps_corner(&self, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_forward();
        let root = self.fwd.borrow().critical[corner].root();
        if root == f64::INFINITY {
            0.0
        } else {
            -root
        }
    }

    /// Arrival time of a net for a given edge (ps), `-inf` if
    /// unreachable; primary corner.
    pub fn arrival_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.arrival_ps_corner(net, edge, 0)
    }

    /// [`TimingGraph::arrival_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn arrival_ps_corner(&self, net: NetId, edge: EdgeDir, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_forward();
        let nc = self.corner_libs.len();
        self.fwd.borrow().arrival[self.slot(net) * nc + corner][eidx(edge.into())]
    }

    /// Transition time of a net for a given edge (ps); primary corner.
    pub fn slope_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.slope_ps_corner(net, edge, 0)
    }

    /// [`TimingGraph::slope_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn slope_ps_corner(&self, net: NetId, edge: EdgeDir, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_forward();
        let nc = self.corner_libs.len();
        self.fwd.borrow().slope[self.slot(net) * nc + corner][eidx(edge.into())]
    }

    /// Capacitive load on a net (fF) under the current sizing, including
    /// the primary-output latch load where applicable.
    pub fn net_load_ff(&self, net: NetId) -> f64 {
        self.flush_forward();
        self.fwd.borrow().load[self.slot(net)]
    }

    /// Worst-case delay of a gate (ps) under the current slopes, on the
    /// primary corner.
    pub fn gate_delay_worst_ps(&self, gate: GateId) -> f64 {
        self.gate_delay_worst_ps_corner(gate, 0)
    }

    /// [`TimingGraph::gate_delay_worst_ps`] on one corner, re-derived
    /// per call by the forward kernel's arc scan.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn gate_delay_worst_ps_corner(&self, gate: GateId, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_forward();
        let fwd = self.fwd.borrow();
        let load = fwd.load[self.slot(self.s.out_net[gate.index()])];
        self.eval_ctx()
            .arcs(gate.index(), corner, load)
            .worst_delay(&fwd.arrival, &fwd.slope)
    }

    /// The most critical path on the primary corner: from the first
    /// output in declaration order, and its first edge, that reach the
    /// critical delay, each stage re-runs the forward kernel's arc scan
    /// and steps to the first input arc that sets the arrival — the
    /// full pass's tie rules.
    ///
    /// Returns an empty path only for circuits without gates.
    pub fn critical_path(&self) -> NetlistPath {
        self.flush_forward();
        let fwd = self.fwd.borrow();
        let ctx = self.eval_ctx();
        let mut gates = Vec::new();
        let mut cur = self.critical_output(&fwd, 0);
        while let Some((net, edge)) = cur {
            let Some(gate) = self.s.net_driver[net.index()] else {
                break;
            };
            gates.push(gate);
            cur = ctx
                .arcs(gate.index(), 0, fwd.load[self.slot(net)])
                .latest(&fwd.arrival, &fwd.slope, edge)
                .map(|(_, in_net, in_edge)| (in_net, in_edge));
        }
        gates.reverse();
        NetlistPath { gates }
    }

    // ---- backward query surface (mirrors `SlackReport`) ----

    /// Set the cycle constraint and answer the backward state (required
    /// times and slacks) under it. Nothing is computed here: the first
    /// backward query after this call — and after every mutation —
    /// runs one full backward pass (the lazy flush). A call with the
    /// constraint already set is a no-op.
    ///
    /// An infinite `tc_ps` is accepted and behaves like the full pass:
    /// `+inf` leaves every net unconstrained (no finite slack anywhere),
    /// which a constraint-driven loop reads as "nothing to do".
    ///
    /// # Panics
    ///
    /// Panics if `tc_ps` is NaN or negative (the
    /// [`TimingGraph::try_set_constraint`] rejections), with a message
    /// naming the offending value.
    pub fn set_constraint(&mut self, tc_ps: f64) {
        self.try_set_constraint(tc_ps)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`TimingGraph::set_constraint`].
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidConstraint`] if `tc_ps` is NaN or negative
    /// (including `-inf` — a required time below every arrival is not a
    /// constraint, it is a contradiction); `+inf` stays accepted as the
    /// documented "nothing is critical" constraint. The graph is
    /// untouched on error.
    pub fn try_set_constraint(&mut self, tc_ps: f64) -> Result<(), StaError> {
        if tc_ps.is_nan() || tc_ps < 0.0 {
            return Err(StaError::InvalidConstraint { tc_ps });
        }
        if let Some(bw) = self.backward.get_mut().as_ref() {
            if bw.tc_ps.to_bits() == tc_ps.to_bits() {
                return Ok(());
            }
        }
        // Required times are subtract-chains from `tc`, not offsets of
        // it, so the new state is swept from scratch.
        *self.backward.get_mut() = Some(BackwardState {
            tc_ps,
            required: Vec::new(),
            swept_gen: None,
        });
        Ok(())
    }

    /// The constraint the backward state is maintained under, if any.
    pub fn constraint_ps(&self) -> Option<f64> {
        self.backward.borrow().as_ref().map(|bw| bw.tc_ps)
    }

    fn backward(&self) -> Ref<'_, BackwardState> {
        Ref::map(self.backward.borrow(), |b| {
            b.as_ref()
                .expect("no backward state: call TimingGraph::set_constraint before querying slack")
        })
    }

    /// Required time of a net for an edge (ps); `+inf` where
    /// unconstrained. Bit-identical to a fresh
    /// [`required_times`](crate::required_times) under the same
    /// constraint. Like every backward query, runs the full backward
    /// sweep first when a mutation came since the last one, except on a
    /// net that feeds no gate: no arc ends there, so its required time
    /// is the constraint at a primary output and `+inf` elsewhere,
    /// whatever is pending, and the read flushes nothing.
    ///
    /// # Panics
    ///
    /// Panics unless [`TimingGraph::set_constraint`] was called.
    pub fn required_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.required_ps_corner(net, edge, 0)
    }

    /// [`TimingGraph::required_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`]; also if `corner >= n_corners()`.
    pub fn required_ps_corner(&self, net: NetId, edge: EdgeDir, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        if let Some(required) = self.fanout_free_required(net) {
            return required;
        }
        self.flush_required();
        let nc = self.corner_libs.len();
        self.backward().required[self.slot(net) * nc + corner][eidx(edge.into())]
    }

    /// The required time of `net` when it feeds no gate, on every corner
    /// and edge: the constraint at a primary output, `+inf` elsewhere.
    /// `None` when it feeds a gate.
    fn fanout_free_required(&self, net: NetId) -> Option<f64> {
        let n = net.index();
        if self.s.fanout_off[n] != self.s.fanout_off[n + 1] {
            return None;
        }
        let tc_ps = self.backward().tc_ps;
        Some(if self.s.is_po[n] {
            tc_ps
        } else {
            f64::INFINITY
        })
    }

    /// Slack of a net for an edge (ps): `required − arrival`, on the
    /// primary corner. Finite or `+inf`, never NaN (see
    /// [`crate::slack`]'s module docs). On a net that feeds no gate only
    /// the forward marks in its driver's fanin cone flush (see
    /// [`TimingGraph::required_ps`]); the rest wait for the next full
    /// flush, and the backward state stays as it is.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`].
    pub fn slack_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.slack_ps_corner(net, edge, 0)
    }

    /// [`TimingGraph::slack_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`]; also if `corner >= n_corners()`.
    pub fn slack_ps_corner(&self, net: NetId, edge: EdgeDir, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        let nc = self.corner_libs.len();
        let i = eidx(edge.into());
        let entry = self.slot(net) * nc + corner;
        if let Some(required) = self.fanout_free_required(net) {
            self.flush_forward_cone(self.slot(net));
            return required - self.fwd.borrow().arrival[entry][i];
        }
        self.flush_required();
        let fwd = self.fwd.borrow();
        self.backward().required[entry][i] - fwd.arrival[entry][i]
    }

    /// Worst (most negative) slack over both edges of a net, on the
    /// primary corner.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`].
    pub fn worst_slack_ps(&self, net: NetId) -> f64 {
        self.slack_ps(net, EdgeDir::Rising)
            .min(self.slack_ps(net, EdgeDir::Falling))
    }

    /// Worst finite slack over the whole design **and all corners**;
    /// `None` when no net carries a finite slack (e.g. zero primary
    /// outputs). One O(nets × corners) fold over the slabs after the
    /// flush, bit-identical to a fresh
    /// [`SlackReport::worst_slack_overall_ps`](crate::SlackReport::worst_slack_overall_ps)
    /// on every corner's lane, folded over corners.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`].
    pub fn worst_slack_overall_ps(&self) -> Option<f64> {
        self.worst_slack_over(0..self.corner_libs.len())
    }

    /// Whether the design meets its constraint at every corner:
    /// bit for bit `worst_slack_overall_ps().map(|s| s >= 0.0)`, but
    /// decided from the forward state, so the backward state flushes
    /// only inside a rounding band around the constraint. With `A` the
    /// latest primary-output arrival over all corners (O(1) off the
    /// critical-output trees after the forward flush), `tc` the
    /// constraint and `L` the number of logic levels:
    ///
    /// * `None` when `tc` is `+inf` or no output is reached — exactly
    ///   when no net carries a finite slack;
    /// * `Some(false)` when `A > tc`: that output's required time is at
    ///   most `tc`, so its slack is negative;
    /// * `Some(true)` when `A < tc − δ` with `δ = 2(L+1)·ε·tc` (`ε` the
    ///   machine epsilon), by the bound below — on the model's physical
    ///   domain, where no arc delay is negative;
    /// * otherwise the exact read, `worst_slack_overall_ps()`.
    ///
    /// **Why `δ` suffices.** Take any finite slack `fl(r − a)` of a net
    /// `n` on one edge and corner. Its required time `r` is the end of a
    /// chain `ρ_m = tc`, `ρ_k = fl(ρ_{k+1} − d_k)` along arcs from `n`
    /// to a primary output, `m ≤ L` (one arc per gate, each gate a level
    /// higher than the last). The forward state holds the same arc
    /// delays `d_k`, bit for bit (one kernel expression over the same
    /// slopes, loads and sizes), and each net's arrival is a max over
    /// its arcs, so the arrivals `α_k` along the chain satisfy
    /// `α_{k+1} ≥ fl(α_k + d_k)` with `α_0 = a` and `α_m ≤ A`. Arc
    /// delays are non-negative and inputs arrive at 0, so
    /// `0 ≤ α_k ≤ A < tc`: each addition rounds by at most `(ε/2)·A`,
    /// and by induction down the chain each `ρ_k` stays in `[0, tc]`, so
    /// each subtraction rounds by at most `(ε/2)·tc`. The two chains
    /// cover the same delays, so `r − a > tc − A − (m+1)·ε·tc`, which is
    /// non-negative when `A ≤ tc − (L+1)·ε·tc`; `δ` doubles that margin
    /// to cover the rounding of `tc − δ` itself. Then `r ≥ a`, and the
    /// slack rounds to a non-negative value.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`].
    pub fn meets_constraint(&self) -> Option<bool> {
        let tc_ps = self.backward().tc_ps;
        if tc_ps == f64::INFINITY {
            return None;
        }
        self.flush_forward();
        let key = self
            .fwd
            .borrow()
            .critical
            .iter()
            .map(|tree| tree.root())
            .fold(f64::INFINITY, min2);
        if key == f64::INFINITY {
            return None;
        }
        let latest = -key;
        if latest > tc_ps {
            return Some(false);
        }
        let levels = self.s.level_start.len() - 1;
        let band = 2.0 * (levels + 1) as f64 * f64::EPSILON * tc_ps;
        if self.delays_nonnegative && latest < tc_ps - band {
            return Some(true);
        }
        self.worst_slack_overall_ps().map(|s| s >= 0.0)
    }

    /// Worst finite slack over the whole design on **one** corner;
    /// `None` when no net carries a finite slack there. The same fold as
    /// [`TimingGraph::worst_slack_overall_ps`] over one corner's lane,
    /// bit-identical to an independent single-corner graph's.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`]; also if `corner >= n_corners()`.
    pub fn worst_slack_overall_ps_corner(&self, corner: usize) -> Option<f64> {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.worst_slack_over(corner..corner + 1)
    }

    /// The design-worst finite slack over the corners in `corners`:
    /// [`worst_slack_of`] every net's lanes, after the backward flush.
    fn worst_slack_over(&self, corners: Range<usize>) -> Option<f64> {
        self.flush_required();
        let nc = self.corner_libs.len();
        let fwd = self.fwd.borrow();
        let bw = self.backward();
        worst_slack_of(
            (0..self.s.slot_of.len())
                .flat_map(|slot| corners.clone().map(move |c| slot * nc + c))
                .map(|entry| (bw.required[entry], fwd.arrival[entry])),
        )
    }
}

impl TimingView for TimingGraph<'_> {
    fn critical_delay_ps(&self) -> f64 {
        TimingGraph::critical_delay_ps(self)
    }
    fn arrival_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        TimingGraph::arrival_ps(self, net, edge)
    }
    fn slope_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        TimingGraph::slope_ps(self, net, edge)
    }
    fn net_load_ff(&self, net: NetId) -> f64 {
        TimingGraph::net_load_ff(self, net)
    }
    fn gate_delay_worst_ps(&self, gate: GateId) -> f64 {
        TimingGraph::gate_delay_worst_ps(self, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, analyze_with};
    use pops_netlist::builders::{inverter_chain, ripple_carry_adder};
    use pops_netlist::suite;
    use pops_netlist::CellKind;

    fn assert_matches_fresh(graph: &TimingGraph, circuit: &Circuit, lib: &Library) {
        let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).unwrap();
        assert_eq!(
            graph.critical_delay_ps().to_bits(),
            fresh.critical_delay_ps().to_bits(),
            "critical delay diverged"
        );
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    graph.arrival_ps(net, dir).to_bits(),
                    fresh.arrival_ps(net, dir).to_bits(),
                    "arrival {net} {dir:?}"
                );
                assert_eq!(
                    graph.slope_ps(net, dir).to_bits(),
                    fresh.slope_ps(net, dir).to_bits(),
                    "slope {net} {dir:?}"
                );
            }
            assert_eq!(
                graph.net_load_ff(net).to_bits(),
                fresh.net_load_ff(net).to_bits(),
                "load {net}"
            );
        }
        for g in circuit.gate_ids() {
            assert_eq!(
                graph.gate_delay_worst_ps(g).to_bits(),
                fresh.gate_delay_worst_ps(g).to_bits(),
                "gate delay {g}"
            );
        }
        assert_eq!(graph.critical_path().gates, fresh.critical_path().gates);
    }

    #[test]
    fn initial_state_matches_full_analysis() {
        let lib = Library::cmos025();
        for c in [inverter_chain(6), ripple_carry_adder(8)] {
            let s = Sizing::minimum(&c, &lib);
            let graph = TimingGraph::new(&c, &lib, &s).unwrap();
            assert_matches_fresh(&graph, &c, &lib);
        }
    }

    #[test]
    fn single_resize_matches_full_analysis() {
        let lib = Library::cmos025();
        let c = ripple_carry_adder(8);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let mid = c.gate_ids().nth(c.gate_count() / 2).unwrap();
        graph.resize_gate(mid, 5.0 * lib.min_drive_ff());
        assert_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn resize_then_revert_restores_the_original_state() {
        let lib = Library::cmos025();
        let c = suite::circuit("fpd").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let before = graph.critical_delay_ps();
        let g = graph.critical_path().gates[2];
        let original = graph.sizing().cin_ff(g);
        graph.resize_gate(g, 8.0 * original);
        assert_ne!(graph.critical_delay_ps().to_bits(), before.to_bits());
        graph.resize_gate(g, original);
        assert_eq!(graph.critical_delay_ps().to_bits(), before.to_bits());
        assert_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn batch_resize_matches_full_analysis() {
        let lib = Library::cmos025();
        let c = suite::circuit("c432").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let path = graph.critical_path();
        let changes: Vec<(GateId, f64)> = path
            .gates
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, (2.0 + i as f64 * 0.1) * lib.min_drive_ff()))
            .collect();
        graph.resize_gates(changes);
        assert_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn resize_touches_only_a_cone() {
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        // A deep gate (late topological rank): its fanout cone is a
        // genuine fraction of the circuit, so the flush drains it
        // instead of cutting over to the full sweep (which a
        // near-input gate on c880 — cone ≈ a third of the netlist —
        // would correctly trigger).
        let topo = c.topo_order().unwrap();
        let g = topo[3 * topo.len() / 4];
        graph.resize_gate(g, 3.0 * lib.min_drive_ff());
        // The resize alone does no arc work; the query flushes the cone.
        assert_eq!(graph.stats().gates_reevaluated, 0);
        assert_eq!(graph.stats().forward_flushes, 0);
        let _ = graph.critical_delay_ps();
        let stats = graph.stats();
        assert_eq!(stats.forward_flushes, 1);
        assert!(
            stats.gates_reevaluated > 0 && stats.gates_reevaluated < c.gate_count(),
            "cone {} must be smaller than the circuit {}",
            stats.gates_reevaluated,
            c.gate_count()
        );
        // A second read on the clean generation is free.
        let _ = graph.critical_delay_ps();
        assert_eq!(graph.stats(), stats);
    }

    #[test]
    fn noop_resize_does_no_work() {
        let lib = Library::cmos025();
        let c = inverter_chain(5);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let g = c.gate_ids().next().unwrap();
        graph.resize_gate(g, lib.min_drive_ff());
        assert_eq!(graph.stats().gates_reevaluated, 0);
        assert_eq!(graph.stats().updates, 0);
    }

    fn assert_backward_matches_fresh(graph: &TimingGraph, circuit: &Circuit, lib: &Library) {
        use crate::kpaths::completion_bounds;
        use crate::slack::required_times;
        let tc = graph.constraint_ps().expect("constraint set");
        let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).unwrap();
        let slacks = required_times(circuit, lib, graph.sizing(), &fresh, tc).unwrap();
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    graph.required_ps(net, dir).to_bits(),
                    slacks.required_ps(net, dir).to_bits(),
                    "required {net} {dir:?}"
                );
                assert_eq!(
                    graph.slack_ps(net, dir).to_bits(),
                    slacks.slack_ps(net, dir).to_bits(),
                    "slack {net} {dir:?}"
                );
            }
        }
        assert_eq!(
            graph.worst_slack_overall_ps().map(f64::to_bits),
            slacks.worst_slack_overall_ps().map(f64::to_bits),
            "worst slack overall"
        );
        let bounds = completion_bounds(circuit, &fresh);
        let via_graph = completion_bounds(circuit, graph);
        for g in circuit.gate_ids() {
            assert_eq!(
                via_graph[g.index()].to_bits(),
                bounds[g.index()].to_bits(),
                "completion {g}"
            );
        }
    }

    #[test]
    fn initial_backward_state_matches_full_backward_pass() {
        let lib = Library::cmos025();
        for c in [inverter_chain(6), ripple_carry_adder(8)] {
            let s = Sizing::minimum(&c, &lib);
            let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
            graph.set_constraint(0.9 * graph.critical_delay_ps());
            assert_backward_matches_fresh(&graph, &c, &lib);
        }
    }

    #[test]
    fn resize_keeps_backward_state_identical_to_fresh_pass() {
        let lib = Library::cmos025();
        let c = suite::circuit("c432").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.85 * graph.critical_delay_ps());
        let path = graph.critical_path();
        for (i, &g) in path.gates.iter().enumerate().take(6) {
            graph.resize_gate(g, (2.0 + i as f64 * 0.7) * lib.min_drive_ff());
            assert_backward_matches_fresh(&graph, &c, &lib);
        }
    }

    #[test]
    fn changing_the_constraint_rebuilds_required_times() {
        let lib = Library::cmos025();
        let c = suite::circuit("fpd").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let t0 = graph.critical_delay_ps();
        graph.set_constraint(t0);
        assert_backward_matches_fresh(&graph, &c, &lib);
        graph.set_constraint(1.4 * t0);
        assert_backward_matches_fresh(&graph, &c, &lib);
        // Worst slack at the exact constraint is 0 at the critical PO.
        graph.set_constraint(t0);
        let worst = graph.worst_slack_overall_ps().unwrap();
        assert!(worst.abs() < 1e-9, "worst slack {worst}");
    }

    #[test]
    fn mutations_alone_never_trigger_a_flush() {
        let lib = Library::cmos025();
        let c = suite::circuit("c432").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.9 * graph.critical_delay_ps());
        // Even the first full backward pass is lazy: nothing has been
        // flushed until the first query.
        assert_eq!(graph.stats().backward_flushes, 0);
        assert_eq!(graph.stats().required_reevaluated, 0);
        let _ = graph.worst_slack_overall_ps();
        let settled = graph.stats();
        assert_eq!(settled.backward_flushes, 1);
        assert_eq!(settled.required_reevaluated, c.net_count());

        let gates: Vec<GateId> = c.gate_ids().collect();
        for (i, &g) in gates.iter().enumerate().take(32) {
            graph.resize_gate(g, (1.5 + i as f64 * 0.1) * lib.min_drive_ff());
        }
        let after = graph.stats();
        assert_eq!(after.backward_flushes, settled.backward_flushes);
        assert_eq!(after.required_reevaluated, settled.required_reevaluated);
        // Forward is lazy too: the resizes did no arc work either.
        assert_eq!(after.forward_flushes, settled.forward_flushes);
        assert_eq!(after.gates_reevaluated, settled.gates_reevaluated);
        // One query sweeps once for all 32 resizes…
        let _ = graph.worst_slack_overall_ps();
        assert_eq!(graph.stats().backward_flushes, settled.backward_flushes + 1);
        // …and a second read without mutations does no further work.
        let _ = graph.worst_slack_overall_ps();
        assert_eq!(graph.stats().backward_flushes, settled.backward_flushes + 1);
        assert_backward_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn worst_slack_fold_matches_a_fresh_backward_pass() {
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let tc = 0.95 * graph.critical_delay_ps();
        graph.set_constraint(tc);
        let gates: Vec<GateId> = c.gate_ids().collect();
        for (i, &g) in gates.iter().enumerate().step_by(7) {
            graph.resize_gate(g, (1.0 + (i % 9) as f64 * 0.4) * lib.min_drive_ff());
            // The graph's fold over its slabs vs the fold over a fresh
            // backward pass: bit-identical at every step.
            let fresh = crate::slack::required_times(&c, &lib, graph.sizing(), &graph, tc).unwrap();
            assert_eq!(
                graph.worst_slack_overall_ps().map(f64::to_bits),
                fresh.worst_slack_overall_ps().map(f64::to_bits),
            );
        }
    }

    #[test]
    fn meets_constraint_reads_exactly_when_delays_can_be_negative() {
        // A negative NMOS threshold takes the model out of its physical
        // domain: the slope term of a rising-input arc goes negative and
        // the rounding bound no longer holds, so even a roomy constraint
        // is decided by the exact backward read.
        let c = suite::circuit("c432").unwrap();
        let unphysical = Library::new(pops_delay::Process {
            vtn: -0.5,
            ..pops_delay::Process::cmos025()
        });
        for (lib, physical) in [(Library::cmos025(), true), (unphysical, false)] {
            let s = Sizing::minimum(&c, &lib);
            let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
            assert_eq!(graph.delays_nonnegative, physical);
            graph.set_constraint(2.0 * graph.critical_delay_ps());
            let exact = graph.clone().worst_slack_overall_ps().map(|s| s >= 0.0);
            assert_eq!(exact, Some(true));
            assert_eq!(graph.meets_constraint(), exact);
            assert_eq!(graph.stats().backward_flushes, usize::from(!physical));
        }
    }

    #[test]
    fn slack_queries_panic_without_a_constraint() {
        let lib = Library::cmos025();
        let c = inverter_chain(3);
        let s = Sizing::minimum(&c, &lib);
        let graph = TimingGraph::new(&c, &lib, &s).unwrap();
        assert_eq!(graph.constraint_ps(), None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            graph.worst_slack_overall_ps()
        }));
        assert!(result.is_err(), "querying slack without a constraint");
    }

    fn assert_surgery_matches_fresh(graph: &TimingGraph) {
        // The authoritative netlist after surgery is the graph's own.
        let circuit = graph.circuit();
        let fresh =
            TimingGraph::with_options(circuit, graph.lib, graph.sizing(), graph.options()).unwrap();
        for net in circuit.net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    graph.arrival_ps(net, dir).to_bits(),
                    fresh.arrival_ps(net, dir).to_bits(),
                    "arrival {net} {dir:?}"
                );
                assert_eq!(
                    graph.slope_ps(net, dir).to_bits(),
                    fresh.slope_ps(net, dir).to_bits(),
                    "slope {net} {dir:?}"
                );
            }
            assert_eq!(
                graph.net_load_ff(net).to_bits(),
                fresh.net_load_ff(net).to_bits(),
                "load {net}"
            );
        }
        for g in circuit.gate_ids() {
            assert_eq!(
                graph.gate_delay_worst_ps(g).to_bits(),
                fresh.gate_delay_worst_ps(g).to_bits(),
                "gate delay {g}"
            );
        }
        assert_eq!(
            graph.critical_delay_ps().to_bits(),
            fresh.critical_delay_ps().to_bits()
        );
    }

    #[test]
    fn buffer_insertion_resets_to_the_fresh_state() {
        use pops_netlist::surgery::{EditOp, EditPlan};
        let lib = Library::cmos025();
        let c = suite::circuit("c432").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.9 * graph.critical_delay_ps());

        // Buffer the widest net: move all but the first load pin.
        let net = c
            .net_ids()
            .max_by_key(|&n| c.net(n).fanout())
            .expect("nonempty circuit");
        let moved: Vec<(GateId, usize)> = c.net(net).loads()[1..].to_vec();
        assert!(!moved.is_empty());
        let plan: EditPlan = vec![EditOp::InsertBuffer {
            net,
            loads: moved,
            stage_cin_ff: [2.0 * lib.min_drive_ff(), 8.0 * lib.min_drive_ff()],
        }]
        .into();
        let before_gates = c.gate_count();
        let applied = graph.apply_edits(&plan).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(graph.circuit().gate_count(), before_gates + 2);
        assert_eq!(graph.sizing().len(), before_gates + 2);
        // The caller's circuit is untouched (copy-on-write).
        assert_eq!(c.gate_count(), before_gates);
        assert_surgery_matches_fresh(&graph);
        // Backward state rides along bit-identically.
        let fresh =
            TimingGraph::with_options(graph.circuit(), &lib, graph.sizing(), graph.options())
                .map(|mut g| {
                    g.set_constraint(graph.constraint_ps().unwrap());
                    g
                })
                .unwrap();
        for net in graph.circuit().net_ids() {
            for dir in [EdgeDir::Rising, EdgeDir::Falling] {
                assert_eq!(
                    graph.required_ps(net, dir).to_bits(),
                    fresh.required_ps(net, dir).to_bits(),
                    "required {net} {dir:?}"
                );
            }
        }
        let bounds = crate::kpaths::completion_bounds(graph.circuit(), &graph);
        let fresh_bounds = crate::kpaths::completion_bounds(graph.circuit(), &fresh);
        for g in graph.circuit().gate_ids() {
            assert_eq!(
                bounds[g.index()].to_bits(),
                fresh_bounds[g.index()].to_bits(),
                "completion {g}"
            );
        }
    }

    #[test]
    fn demorgan_resets_to_the_fresh_state_and_preserves_logic() {
        use pops_netlist::surgery::{EditOp, EditPlan};
        let lib = Library::cmos025();
        let c = suite::circuit("fpd").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(graph.critical_delay_ps());
        let nor = c
            .gate_ids()
            .find(|&g| c.gate(g).kind() == CellKind::Nor2)
            .expect("fpd is NOR-rich");
        let plan: EditPlan = vec![EditOp::DeMorgan {
            gate: nor,
            inv_cin_ff: lib.min_drive_ff(),
        }]
        .into();
        graph.apply_edits(&plan).unwrap();
        assert_eq!(graph.circuit().gate(nor).kind(), CellKind::Nand2);
        assert_surgery_matches_fresh(&graph);
        graph.circuit().validate().unwrap();
    }

    #[test]
    fn surgery_composes_with_resizes_and_reverts() {
        use pops_netlist::surgery::{EditOp, EditPlan};
        let lib = Library::cmos025();
        let c = ripple_carry_adder(6);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.95 * graph.critical_delay_ps());
        let net = c
            .net_ids()
            .filter(|&n| c.driver_gate(n).is_some() && c.net(n).fanout() >= 2)
            .max_by_key(|&n| c.net(n).fanout())
            .unwrap();
        let plan: EditPlan = vec![EditOp::InsertBuffer {
            net,
            loads: c.net(net).loads()[1..].to_vec(),
            stage_cin_ff: [lib.min_drive_ff(), 4.0 * lib.min_drive_ff()],
        }]
        .into();
        let applied = graph.apply_edits(&plan).unwrap();
        // Resize the new buffer and a random old gate, then revert.
        let buf = applied[0].new_gates[1];
        let old = graph.circuit().gate_ids().next().unwrap();
        for g in [buf, old] {
            let orig = graph.sizing().cin_ff(g);
            graph.resize_gate(g, 3.0 * orig);
            graph.resize_gate(g, orig);
        }
        assert_surgery_matches_fresh(&graph);
        assert_eq!(graph.stats().structural_edits, 1);
    }

    #[test]
    fn failing_plan_leaves_a_consistent_graph() {
        use pops_netlist::surgery::{EditOp, EditPlan};
        let lib = Library::cmos025();
        let c = ripple_carry_adder(4);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let net = c
            .net_ids()
            .find(|&n| c.driver_gate(n).is_some() && c.net(n).fanout() >= 2)
            .unwrap();
        let good = EditOp::InsertBuffer {
            net,
            loads: c.net(net).loads().to_vec(),
            stage_cin_ff: [lib.min_drive_ff(), lib.min_drive_ff()],
        };
        // Second op names a pin that no longer loads `net` (the first op
        // moved it): application stops there.
        let bad = EditOp::InsertBuffer {
            net,
            loads: c.net(net).loads().to_vec(),
            stage_cin_ff: [lib.min_drive_ff(), lib.min_drive_ff()],
        };
        let plan: EditPlan = vec![good, bad].into();
        let err = graph.apply_edits(&plan).unwrap_err();
        assert!(matches!(err, NetlistError::UnsupportedEdit(_)));
        // The applied prefix is in, and the graph still agrees with a
        // from-scratch build on its (partially edited) circuit.
        assert_eq!(graph.circuit().gate_count(), c.gate_count() + 2);
        assert_surgery_matches_fresh(&graph);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        use pops_netlist::surgery::EditPlan;
        let lib = Library::cmos025();
        let c = inverter_chain(4);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let before = graph.stats();
        assert!(graph.apply_edits(&EditPlan::new()).unwrap().is_empty());
        assert_eq!(graph.stats(), before);
    }

    #[test]
    fn timing_view_is_object_safe_over_both_backends() {
        let lib = Library::cmos025();
        let c = inverter_chain(4);
        let s = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &s).unwrap();
        let graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let views: Vec<&dyn TimingView> = vec![&report, &graph];
        let delays: Vec<f64> = views.iter().map(|v| v.critical_delay_ps()).collect();
        assert_eq!(delays[0].to_bits(), delays[1].to_bits());
    }
}
