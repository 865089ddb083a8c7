//! Incremental static timing analysis: dirty-cone re-propagation.
//!
//! The optimization protocol is an iterative loop — classify, resize,
//! re-time, repeat — and a single gate resize only perturbs its fanin
//! nets' loads and its downstream fanout cone. A [`TimingGraph`] is
//! built once per circuit (caching the topological order, per-gate topo
//! rank and per-net loads) and then kept consistent through
//! [`TimingGraph::resize_gate`] / [`TimingGraph::set_options`] mutators
//! that re-evaluate only the affected cone, in rank order, stopping as
//! soon as re-propagated arrivals and slopes converge onto their cached
//! values.
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
//! Slack — not just arrival — is what a constraint-driven sizing loop
//! consults on every probe. After [`TimingGraph::set_constraint`] the
//! graph additionally maintains the per-net required times under that
//! constraint (the [`required_times`](crate::required_times) state),
//! kept consistent by the same dirty-cone machinery running in
//! *reverse* rank order — a resize dirties the fanin cone (arc delays
//! through the gate and through the drivers of its fanin nets changed)
//! while the forward propagation reports every net whose slope moved,
//! seeding the backward cones on the fanout side. The same bitwise
//! convergence rule applies: a net whose recomputed required times are
//! bit-identical to the cached value cuts its backward cone.
//! [`TimingGraph::set_options`] and constraint changes invalidate the
//! backward state wholesale — required times are subtract-chains from
//! `tc`, not `tc`-offsets — so their next flush is one full backward
//! pass. `tests/backward_equivalence.rs` and
//! `tests/lazy_equivalence.rs` assert bit-identity against a fresh
//! [`crate::required_times`] after every step of random mutation
//! sequences.
//!
//! The k-paths completion bounds are *not* maintained: the flow reads
//! them once per round, after resizes spread over the whole circuit, so
//! a maintained copy would re-derive every gate on every read anyway.
//! [`k_most_critical_paths`](crate::k_most_critical_paths) derives them
//! per call with [`completion_bounds`](crate::completion_bounds) over
//! this graph's worst gate delays.
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
//! structural edit touched or created, pending load/slope rescans — and
//! every *forward* query, without exception (`critical_delay_ps`,
//! `arrival_ps`, `slope_ps`, `net_load_ff`, `gate_delay_worst_ps`,
//! `critical_path`, and every [`TimingView`] read), marks them into the
//! dirty set and drains one merged forward cone — or sweeps, see *Drain
//! or sweep* below. Backward queries are **two-phase**: they flush
//! forward first (required times re-derive from final slopes and
//! loads), then drain the backward seeds the forward flush just
//! deposited. The eager/lazy distinction is invisible to every
//! consumer — `tests/lazy_equivalence.rs` and
//! `tests/forward_lazy_equivalence.rs` prove any interleaving of
//! mutations and queries bit-identical to the eager semantics, and
//! [`UpdateStats::forward_flushes`] / [`UpdateStats::backward_flushes`]
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
//! # Rank-major slabs
//!
//! At 100k–1M gates the full sweeps are memory-bound, so the
//! floating-point state lives in **rank-major struct-of-arrays slabs**
//! instead of id-keyed records. The cached topo order is *level-major*:
//! gates are counting-sorted by logic level (stable by topo order
//! within a level), `rank[g]` is the gate's position in that order and
//! `level_start[l] .. level_start[l+1]` delimits level `l` — the level
//! profile the drain-or-sweep rule reads off a dirty set. A level-major
//! order is still a topological order, so ascending and descending
//! drains work unchanged. Net state is indexed by
//! **slot**: the driverless nets (primary inputs and any undriven nets)
//! occupy slots `0..n_src` in net-id order, and the net driven by the
//! gate at position `p` occupies slot `n_src + p` — a full sweep
//! therefore *streams* the arrival/slope/pred/load/required slabs in
//! memory order instead of pointer-chasing the netlist.
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

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};

use pops_delay::model::Edge;
use pops_delay::{CornerSet, Library, VtTiming};
use pops_netlist::surgery::{AppliedEdit, EditPlan};
use pops_netlist::{CellKind, Circuit, GateId, NetId, NetlistError, VtClass};

use crate::analysis::{eidx, AnalyzeOptions, EdgeDir, NetlistPath, TimingView, EDGES};
use crate::dirty::{Direction, DirtySet, Drained};
use crate::error::StaError;
use crate::kernel::{BwdView, EvalCtx, FwdView, PredPair, F_ARRIVAL, F_OUT_CHANGED, F_SLOPE};
use crate::sizing::Sizing;
use crate::slack::{min2, WorstSlackIndex};

/// Cumulative work counters, for benchmarks and cone-size assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Gate re-evaluations performed since construction (the full
    /// initial pass is not counted).
    pub gates_reevaluated: usize,
    /// Re-evaluations whose output was bit-unchanged, cutting the cone.
    pub converged_early: usize,
    /// Mutator calls (resize / option changes) processed.
    pub updates: usize,
    /// Per-net required-time re-evaluations (backward cone walks; the
    /// constraint-setting full pass is counted too).
    pub required_reevaluated: usize,
    /// Required-time re-evaluations that were bit-unchanged, cutting
    /// the backward cone.
    pub required_converged_early: usize,
    /// Always 0: the graph no longer maintains k-paths completion
    /// bounds ([`crate::k_most_critical_paths`] derives them per call).
    /// Kept only for callers that still read the field.
    pub completion_reevaluated: usize,
    /// Structural edits applied through [`TimingGraph::apply_edits`].
    pub structural_edits: usize,
    /// Lazy forward flushes actually performed — one per *query* that
    /// found arrivals behind the mutation generation with forward work
    /// pending, never one per mutation (see the module docs' state
    /// machine). A generation bump with no forward seeds (e.g. a
    /// constraint change) is settled without counting a flush.
    pub forward_flushes: usize,
    /// Lazy backward flushes actually performed — one per *query* that
    /// found the backward state behind the mutation generation, never
    /// one per mutation (see the module docs' state machine).
    pub backward_flushes: usize,
    /// Worst-slack tournament-tree leaf refreshes folded in by flushes
    /// (each O(log nets); a wholesale refold counts one per net).
    pub slack_index_updates: usize,
}

/// Per-(gate, corner) model constants, flattened out of the corner
/// libraries at build time.
///
/// `Library::cell()` is a by-kind lookup and the symmetry factors are
/// re-derived on every call; one cone re-evaluation makes thousands of
/// arc evaluations, so the graph caches the resolved constants per gate
/// and corner. Every cached value is produced by the *same*
/// floating-point expression the model uses, so arc delays stay
/// bit-identical to
/// [`gate_delay_with_output_edge_vt`](pops_delay::model::gate_delay_with_output_edge_vt)
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

    /// Gates in the cached topological order. The order is
    /// **level-major**: counting-sorted by logic level, stable by the
    /// circuit's base topo order within a level — still a topological
    /// order, but with every level contiguous.
    topo: Vec<GateId>,
    /// `rank[gate] = position in `topo`` — the propagation priority.
    rank: Vec<u32>,
    /// Positions `level_start[l] .. level_start[l+1]` form logic level
    /// `l` (0-based here; the netlist's levels are 1-based).
    level_start: Vec<u32>,
    /// Slab slot of each net's timing state: driverless nets take slots
    /// `0..n_src` in net-id order, the net driven by the gate at
    /// position `p` takes slot `n_src + p`.
    slot_of: Vec<u32>,
    /// Number of driverless nets (= the first gate-driven slot).
    n_src: usize,
    /// The driverless nets in slot order (`sources[s]` occupies slot `s`).
    sources: Vec<NetId>,
    /// Driver gate of each net (`None` for primary inputs).
    net_driver: Vec<Option<GateId>>,

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

    /// Cell kind per gate (flat copy: avoids chasing `circuit.gate()`
    /// in the hot loop).
    cell: Vec<CellKind>,
    /// Output net per gate.
    out_net: Vec<NetId>,
    /// Fanin nets of all gates, flattened; gate `g`'s inputs are
    /// `fanin[fanin_off[g] .. fanin_off[g+1]]`.
    fanin: Vec<NetId>,
    fanin_off: Vec<u32>,
    /// Slab slot of each flattened fanin net (parallel to `fanin`), so
    /// the per-gate kernel never round-trips through net ids.
    fanin_slots: Vec<u32>,
    /// Fanout gates of all nets, flattened; net `n`'s loads are
    /// `fanout[fanout_off[n] .. fanout_off[n+1]]` (one entry per pin).
    fanout: Vec<GateId>,
    fanout_off: Vec<u32>,

    /// Primary-output flag per net (flat copy for the backward hot loop).
    is_po: Vec<bool>,
    /// Primary-input nets (flat copy: the hot loops must not chase the
    /// circuit while the graph is being mutated).
    pis: Vec<NetId>,
    /// Primary-output nets, in declaration order (critical scan order).
    pos: Vec<NetId>,
    /// Mutation generation: bumped by every state-changing mutator
    /// (resize batches, option/constraint changes, structural edits).
    /// The forward and backward states each record the generation they
    /// last flushed at; the pairs implement the lazy clean →
    /// dirty(gen) → flushed cycle in both directions.
    gen: u64,
    /// Maintained forward state (arrivals, slopes, loads, worst gate
    /// delays) plus its lazy seed logs. Interior-mutable so `&self`
    /// queries can perform the lazy flush — mutators go through
    /// `get_mut` (no runtime borrow), queries borrow-check at runtime
    /// but never nest a mutable borrow under a shared one.
    fwd: RefCell<ForwardState>,
    /// Maintained backward state; `None` until
    /// [`TimingGraph::set_constraint`]. Interior-mutable as `fwd`.
    backward: RefCell<Option<BackwardState>>,
    stats: Cell<UpdateStats>,
}

/// Incrementally maintained forward timing state of a [`TimingGraph`]:
/// the floating-point arrays plus the lazy-flush bookkeeping. Lives in
/// a [`RefCell`] so forward queries on `&self` can drain pending seeds.
#[derive(Debug, Clone)]
struct ForwardState {
    /// Arrival time per edge (ps), **slot- and corner-indexed**: net
    /// slot `s` at corner `c` is entry `s * n_corners + c` (see
    /// [`TimingGraph::slot_of`]); `-inf` where unreachable. Slabs
    /// instead of per-net records: a full sweep writes slots in memory
    /// order (gate `p` owns slot `n_src + p`), so the sweep streams
    /// memory-bandwidth-bound. The corner lanes ride in the
    /// same stride-`n_corners` layout, propagated together in one pass.
    arrival: Vec<[f64; 2]>,
    /// Transition time per edge (ps), slot- and corner-indexed.
    slope: Vec<[f64; 2]>,
    /// Predecessor `(net, input edge)` of the worst arrival, slot- and
    /// corner-indexed.
    pred: Vec<PredPair>,
    /// Capacitive load (fF) under the current sizing, slot-indexed —
    /// corner-*invariant* (corners derate only electrical parameters,
    /// never geometry), so this slab keeps stride 1.
    load: Vec<f64>,
    /// Worst-case delay of each gate under the current slopes,
    /// **position- and corner-indexed** (`pos * n_corners + c`).
    gate_delay_worst: Vec<f64>,
    /// Worst primary output `(net, edge)` per corner (corner-indexed).
    critical_net: Vec<Option<(NetId, Edge)>>,

    /// Gates to re-evaluate, by topo position. Populated only *inside*
    /// a flush (mutators append to the id-keyed seed logs instead, so
    /// graph surgery can re-rank freely without orphaning pending
    /// marks) and drained in ascending order.
    dirty: DirtySet,

    /// Generation ([`TimingGraph::gen`]) the forward state last flushed
    /// at; a mismatch means seeds are pending and the next forward
    /// query drains them (and deposits the backward seeds the drained
    /// cone produces — backward flushes therefore run *after* this).
    flushed_gen: u64,

    /// Seed logs: the mutation-side half of the forward lazy contract.
    /// Mutators only *append* ids here — no rank lookups, no bitset
    /// read-modify-writes — and the flush marks them into the
    /// position-keyed dirty set. Entries may repeat; ids are stable across
    /// append-only surgery, so no translation is needed when ranks are
    /// reassigned.
    ///
    /// Gates whose drive changed: their fanin nets' loads recompute,
    /// those nets' drivers re-time, and the gate itself re-evaluates.
    resized_log: Vec<GateId>,
    /// Gates a structural edit touched or created: re-evaluate outright
    /// (cell, wiring or environment may have changed).
    gate_log: Vec<GateId>,
    /// A structural edit changed connectivity: recompare every net's
    /// load under the edited structure at flush time (the cached values
    /// are the pre-edit loads) and re-time the drivers of the ones that
    /// moved, seeding their backward cones alongside.
    scan_loads: bool,
    /// The primary-output latch load changed ([`AnalyzeOptions`]):
    /// recompute every primary-output net's load and re-time its driver.
    reload_pos: bool,
    /// The primary-input transition changed: rewrite every primary
    /// input's slopes and re-evaluate its fanout gates.
    reslope_pis: bool,
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

/// The circuit-derived arrays of a [`TimingGraph`]: topology, adjacency
/// and flattened model constants — everything except the floating-point
/// timing state. Rebuilt wholesale by [`TimingGraph::apply_edits`]
/// (graph surgery changes ranks and adjacency arbitrarily, and this
/// rebuild is pure pointer/arena work — the expensive part, arc
/// re-evaluation, stays confined to the seeded dirty cones).
struct Structure {
    topo: Vec<GateId>,
    rank: Vec<u32>,
    level_start: Vec<u32>,
    slot_of: Vec<u32>,
    n_src: usize,
    sources: Vec<NetId>,
    net_driver: Vec<Option<GateId>>,
    cell: Vec<CellKind>,
    out_net: Vec<NetId>,
    fanin: Vec<NetId>,
    fanin_off: Vec<u32>,
    fanin_slots: Vec<u32>,
    fanout: Vec<GateId>,
    fanout_off: Vec<u32>,
    is_po: Vec<bool>,
    pis: Vec<NetId>,
    pos: Vec<NetId>,
}

fn build_structure(circuit: &Circuit) -> Result<Structure, NetlistError> {
    // Level-major topo order: counting-sort the base topo order by
    // logic level (stable within a level). Every fanin of a gate sits
    // at a strictly lower level, so this is still a topological order —
    // ascending and descending drains work unchanged — and each
    // level is a contiguous run of mutually independent gates.
    let base_topo = circuit.topo_order()?;
    let levels = circuit.logic_levels()?;
    let n_gates = circuit.gate_count();
    // Slots, ranks, level starts and adjacency offsets are stored as
    // `u32`; net and pin counts bound every one of them.
    assert!(
        u32::try_from(circuit.net_count()).is_ok() && u32::try_from(circuit.pin_count()).is_ok(),
        "net and pin counts must fit the u32 slot, rank and offset indices"
    );
    let n_levels = levels.iter().copied().max().unwrap_or(0);
    let mut level_start = vec![0u32; n_levels + 1];
    for &g in &base_topo {
        level_start[levels[g.index()]] += 1;
    }
    for l in 1..level_start.len() {
        level_start[l] += level_start[l - 1];
    }
    debug_assert_eq!(level_start[n_levels] as usize, n_gates);
    // `cursor[l]` = next free position of 1-based level `l + 1`;
    // `level_start` is already the prefix-summed offset table.
    let mut cursor: Vec<u32> = level_start[..n_levels].to_vec();
    let mut topo = base_topo.clone();
    let mut rank = vec![0u32; n_gates];
    for &g in &base_topo {
        let l = levels[g.index()] - 1;
        let r = cursor[l];
        cursor[l] += 1;
        topo[r as usize] = g;
        rank[g.index()] = r;
    }

    let n_nets = circuit.net_count();
    let net_driver: Vec<Option<GateId>> =
        circuit.net_ids().map(|n| circuit.driver_gate(n)).collect();

    // Slab slots: driverless nets first (net-id order), then one slot
    // per gate at `n_src + rank[driver]` — a bijection onto
    // `0..n_nets`, since every gate drives exactly one net.
    let sources: Vec<NetId> = circuit
        .net_ids()
        .filter(|n| net_driver[n.index()].is_none())
        .collect();
    let n_src = sources.len();
    let mut slot_of = vec![0u32; n_nets];
    for (s, n) in sources.iter().enumerate() {
        slot_of[n.index()] = s as u32;
    }
    for (i, d) in net_driver.iter().enumerate() {
        if let Some(g) = d {
            slot_of[i] = (n_src + rank[g.index()] as usize) as u32;
        }
    }
    debug_assert_eq!(n_src + n_gates, n_nets, "slots must cover every net");

    // Flatten the netlist adjacency into contiguous arrays: the cone
    // walk is memory-bound, and per-gate/per-net `Vec`s would cost a
    // pointer chase per visit.
    let cell: Vec<CellKind> = circuit.gate_ids().map(|g| circuit.gate(g).kind()).collect();
    let out_net: Vec<NetId> = circuit
        .gate_ids()
        .map(|g| circuit.gate(g).output())
        .collect();
    let mut fanin = Vec::with_capacity(circuit.pin_count());
    let mut fanin_off = Vec::with_capacity(circuit.gate_count() + 1);
    fanin_off.push(0u32);
    for g in circuit.gate_ids() {
        fanin.extend_from_slice(circuit.gate(g).inputs());
        fanin_off.push(fanin.len() as u32);
    }
    let mut fanout = Vec::with_capacity(circuit.pin_count());
    let mut fanout_off = Vec::with_capacity(n_nets + 1);
    fanout_off.push(0u32);
    for n in circuit.net_ids() {
        fanout.extend(circuit.fanout_gates(n));
        fanout_off.push(fanout.len() as u32);
    }
    let fanin_slots: Vec<u32> = fanin.iter().map(|n| slot_of[n.index()]).collect();

    Ok(Structure {
        topo,
        rank,
        level_start,
        slot_of,
        n_src,
        sources,
        net_driver,
        cell,
        out_net,
        fanin,
        fanin_off,
        fanin_slots,
        fanout,
        fanout_off,
        is_po: circuit
            .net_ids()
            .map(|n| circuit.net(n).is_output())
            .collect(),
        pis: circuit.primary_inputs().to_vec(),
        pos: circuit.primary_outputs().to_vec(),
    })
}

/// Resolve the flattened model constants of one `(cell, Vt variant)`
/// pair under one corner's library. This is the single home of the
/// constant-folding arithmetic: `tau_s` caches `(τ·S) · drive_factor`
/// in the exact association order of
/// [`gate_delay_with_output_edge_vt`](pops_delay::model::gate_delay_with_output_edge_vt)'s
/// `process.tau_ps * s * drive_factor * C_L / C_IN`, and `vt` caches
/// `v_T · vt_scale` — so for an SVT gate (both factors `1.0`,
/// bit-neutral) the constants reproduce the plain single-corner model
/// bit for bit.
fn gate_params_for(lib: &Library, kind: CellKind, class: VtClass) -> GateParams {
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
/// again after surgery (the created gates need constants too).
fn build_gate_params(
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

/// Permute a slot-indexed slab into a new slot layout after surgery:
/// net ids are stable across append-only edits, so each surviving net
/// carries its value from its old slot to its new one; created ids
/// (slots no old net maps to) get `default`. `stride` is the per-slot
/// entry count (the corner count for the per-corner slabs, 1 for the
/// corner-invariant ones); a slot's corner lanes move together.
fn remap_slots<T: Copy>(
    old: &[T],
    old_slot_of: &[u32],
    new_slot_of: &[u32],
    default: T,
    stride: usize,
) -> Vec<T> {
    let mut out = vec![default; new_slot_of.len() * stride];
    for net in 0..old_slot_of.len() {
        let o = old_slot_of[net] as usize * stride;
        let n = new_slot_of[net] as usize * stride;
        out[n..n + stride].copy_from_slice(&old[o..o + stride]);
    }
    out
}

/// Permute a position-indexed (rank-major) slab into a new rank layout
/// after surgery, as [`remap_slots`] but keyed by gate id.
fn remap_ranks<T: Copy>(
    old: &[T],
    old_rank: &[u32],
    new_rank: &[u32],
    default: T,
    stride: usize,
) -> Vec<T> {
    let mut out = vec![default; new_rank.len() * stride];
    for g in 0..old_rank.len() {
        let o = old_rank[g] as usize * stride;
        let n = new_rank[g] as usize * stride;
        out[n..n + stride].copy_from_slice(&old[o..o + stride]);
    }
    out
}

/// Incrementally maintained backward timing state (see the module
/// docs): per-net required times under a fixed constraint, kept
/// consistent by reverse-rank dirty-cone propagation.
#[derive(Debug, Clone)]
struct BackwardState {
    /// The cycle constraint applied at every primary output (ps).
    tc_ps: f64,
    /// `required[net][edge]` (ps); `+inf` where unconstrained.
    required: Vec<[f64; 2]>,

    /// Driven nets whose required times must re-derive, by the topo
    /// position of their driver (net slot `n_src + p`), drained in
    /// descending order.
    req: DirtySet,
    /// Driverless nets whose required times must re-derive, by slot:
    /// sinks of the backward walk, drained after `req`.
    req_src: DirtySet,

    /// Generation ([`TimingGraph::gen`]) the required-time state (and
    /// the worst-slack index) last flushed at; a mismatch means seeds
    /// are pending and the next slack/required query drains them.
    req_flushed_gen: u64,

    /// Seed logs: the mutation-side half of the lazy contract. Hot
    /// paths (resize batches, forward cone evaluation) only *append*
    /// ids here — no rank lookups, no bitset read-modify-writes — and
    /// the flush marks them into the position-keyed dirty sets (a
    /// wholesale invalidation discards them: its full sets subsume
    /// them). Entries may repeat; ids are stable across append-only surgery,
    /// so no translation is needed when ranks are reassigned.
    ///
    /// Gates whose drive changed: their fanin nets' required times and
    /// their fanin drivers' fanin required times re-derive.
    resized_log: Vec<GateId>,
    /// Nets whose slope moved: their required times re-derive.
    req_net_log: Vec<NetId>,
    /// Nets whose arrival moved: their worst-slack leaves re-fold.
    slack_net_log: Vec<NetId>,

    /// Tournament tree over per-net worst finite slacks (root = design
    /// worst); see [`WorstSlackIndex`].
    worst: WorstSlackIndex,
    /// Every slack may have moved (constraint/option invalidation,
    /// graph surgery): rebuild the index wholesale at the next flush
    /// instead of per-leaf updates.
    refold_all: bool,
}

impl<'c> TimingGraph<'c> {
    /// Build the graph and run the initial full timing pass under
    /// default [`AnalyzeOptions`].
    ///
    /// # Errors
    ///
    /// Propagates netlist structural errors (cycles, undriven nets) from
    /// [`Circuit::topo_order`]; [`NetlistError::InvalidId`] when `sizing`
    /// does not have exactly one entry per gate of `circuit`.
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
    /// same dirty-cone drain, same lazy generation-counted flush. Corner
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
        let s = build_structure(circuit)?;
        let n_nets = circuit.net_count();
        let n_gates = circuit.gate_count();
        let nc = corner_libs.len();
        let vt_class = vec![VtClass::Svt; n_gates];
        let gate_params = build_gate_params(circuit, &corner_libs, &vt_class);

        let graph = TimingGraph {
            circuit: Cow::Borrowed(circuit),
            lib,
            options: options.clone(),
            sizing: sizing.clone(),
            topo: s.topo,
            rank: s.rank,
            level_start: s.level_start,
            slot_of: s.slot_of,
            n_src: s.n_src,
            sources: s.sources,
            net_driver: s.net_driver,
            gate_params,
            corner_libs,
            vt_class,
            cell: s.cell,
            out_net: s.out_net,
            fanin: s.fanin,
            fanin_off: s.fanin_off,
            fanin_slots: s.fanin_slots,
            fanout: s.fanout,
            fanout_off: s.fanout_off,
            is_po: s.is_po,
            pis: s.pis,
            pos: s.pos,
            gen: 0,
            fwd: RefCell::new(ForwardState {
                arrival: vec![[f64::NEG_INFINITY; 2]; n_nets * nc],
                slope: vec![[0.0; 2]; n_nets * nc],
                pred: vec![[None, None]; n_nets * nc],
                load: vec![0.0; n_nets],
                gate_delay_worst: vec![0.0f64; n_gates * nc],
                critical_net: vec![None; nc],
                dirty: DirtySet::new(n_gates),
                flushed_gen: 0,
                resized_log: Vec::new(),
                gate_log: Vec::new(),
                scan_loads: false,
                reload_pos: false,
                reslope_pis: false,
            }),
            backward: RefCell::new(None),
            stats: Cell::new(UpdateStats::default()),
        };
        // Initial timing: evaluate every gate once in topological order
        // — exactly the full pass of `analyze_with`. Construction
        // precedes any constraint (no backward state to seed) and is
        // not counted in the incremental-work stats.
        {
            let mut fwd = graph.fwd.borrow_mut();
            for i in 0..n_nets {
                graph.recompute_net_load(&mut fwd, i);
            }
            for i in 0..graph.pis.len() {
                let pi = graph.pis[i];
                let slot = graph.slot_of[pi.index()] as usize;
                // Source conditions are corner-invariant (options, not
                // process): every corner lane starts identically.
                for c in 0..nc {
                    for e in EDGES {
                        fwd.arrival[slot * nc + c][eidx(e)] = 0.0;
                        fwd.slope[slot * nc + c][eidx(e)] = graph.options.input_transition_ps;
                    }
                }
            }
            graph.full_forward_sweep(&mut fwd, None);
            graph.recompute_critical(&mut fwd);
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

    /// Deep-consistency audit of the engine's internal state — a cheap
    /// health check for long-lived processes and the oracle the
    /// mutation-boundary tests consult. Pending lazy
    /// seeds are flushed first (the invariants hold over settled
    /// state); the audit then checks, in order:
    ///
    /// * **slot/rank bijection** — driverless nets occupy slots
    ///   `0..n_src` in net-id order, the net driven by the gate at topo
    ///   position `p` occupies slot `n_src + p`, and `rank` inverts the
    ///   topo order;
    /// * **level monotonicity** — `level_start` partitions the topo
    ///   positions and every gate's fanin drivers sit in strictly lower
    ///   levels;
    /// * **dirty-set vs generation agreement** — every dirty set's
    ///   popcount matches its maintained count, and state flushed to the
    ///   current mutation generation holds no pending marks, seed-log
    ///   entries or rescan flags;
    /// * **worst-slack tree agreement** — every leaf bit-matches an
    ///   independent refold of the required/arrival slabs and every
    ///   internal node (the root included) the min of its children;
    /// * **per-corner finiteness policy** — loads finite and
    ///   non-negative, slopes and worst gate delays finite, arrivals
    ///   `-inf` or finite, required times `+inf` or finite; NaN
    ///   nowhere.
    ///
    /// # Errors
    ///
    /// [`StaError::StateCorrupt`] naming the first violated invariant
    /// and the offending values.
    pub fn verify_state(&self) -> Result<(), StaError> {
        self.flush_forward();
        self.flush_required();
        let corrupt = |detail: String| Err(StaError::StateCorrupt { detail });

        let n_nets = self.slot_of.len();
        let n_gates = self.topo.len();
        let nc = self.corner_libs.len();

        // Slot/rank bijection.
        let mut slot_seen = vec![false; n_nets];
        let mut next_src = 0usize;
        for net in 0..n_nets {
            let slot = self.slot_of[net] as usize;
            if slot >= n_nets {
                return corrupt(format!(
                    "net {net}: slot {slot} out of range ({n_nets} nets)"
                ));
            }
            if slot_seen[slot] {
                return corrupt(format!("net {net}: slot {slot} assigned twice"));
            }
            slot_seen[slot] = true;
            match self.net_driver[net] {
                None => {
                    if slot != next_src {
                        return corrupt(format!(
                            "driverless net {net} at slot {slot}, expected source slot {next_src}"
                        ));
                    }
                    next_src += 1;
                }
                Some(driver) => {
                    let pos = self.rank[driver.index()] as usize;
                    if slot != self.n_src + pos {
                        return corrupt(format!(
                            "net {net} driven by topo position {pos} occupies slot {slot}, \
                             expected {}",
                            self.n_src + pos
                        ));
                    }
                }
            }
        }
        if next_src != self.n_src {
            return corrupt(format!(
                "{next_src} driverless nets but n_src = {}",
                self.n_src
            ));
        }
        for (pos, &gate) in self.topo.iter().enumerate() {
            if self.rank[gate.index()] as usize != pos {
                return corrupt(format!(
                    "rank[{}] = {} does not invert topo position {pos}",
                    gate.index(),
                    self.rank[gate.index()]
                ));
            }
        }

        // Level monotonicity.
        if self.level_start.first() != Some(&0)
            || self.level_start.last() != Some(&(n_gates as u32))
            || self.level_start.windows(2).any(|w| w[0] >= w[1])
        {
            return corrupt(format!(
                "level_start {:?} is not a strictly increasing partition of {n_gates} positions",
                self.level_start
            ));
        }
        for pos in 0..n_gates {
            let gate = self.topo[pos];
            let level = self.level_of(pos as u32);
            let (lo, hi) = (
                self.fanin_off[gate.index()] as usize,
                self.fanin_off[gate.index() + 1] as usize,
            );
            for &in_net in &self.fanin[lo..hi] {
                if let Some(driver) = self.net_driver[in_net.index()] {
                    let dpos = self.rank[driver.index()] as usize;
                    if dpos >= pos || self.level_of(dpos as u32) >= level {
                        return corrupt(format!(
                            "gate at position {pos} (level {level}) has a fanin driver at \
                             position {dpos} (level {}) — not strictly lower",
                            self.level_of(dpos as u32)
                        ));
                    }
                }
            }
        }

        let fwd = self.fwd.borrow();

        // Dirty bookkeeping vs generation agreement. The flushes above
        // settled everything to the current generation, so every mark,
        // seed log and rescan flag must now be clear.
        if let Err(e) = fwd.dirty.check_count() {
            return corrupt(format!("forward dirty set: {e}"));
        }
        if fwd.flushed_gen != self.gen {
            return corrupt(format!(
                "forward state at generation {} behind mutation generation {} after a flush",
                fwd.flushed_gen, self.gen
            ));
        }
        if !fwd.dirty.is_empty()
            || !fwd.resized_log.is_empty()
            || !fwd.gate_log.is_empty()
            || fwd.scan_loads
            || fwd.reload_pos
            || fwd.reslope_pis
        {
            return corrupt(format!(
                "flushed forward state still dirty: {} marks, {} resize seeds, {} gate seeds, \
                 flags {}/{}/{}",
                fwd.dirty.count(),
                fwd.resized_log.len(),
                fwd.gate_log.len(),
                fwd.scan_loads,
                fwd.reload_pos,
                fwd.reslope_pis
            ));
        }

        // Forward finiteness policy.
        for (slot, &load) in fwd.load.iter().enumerate() {
            if !load.is_finite() || load < 0.0 {
                return corrupt(format!(
                    "load at slot {slot} is {load} (finite ≥ 0 required)"
                ));
            }
        }
        for (i, a) in fwd.arrival.iter().enumerate() {
            for &v in a {
                if v.is_nan() || v == f64::INFINITY {
                    return corrupt(format!(
                        "arrival at slot {}/corner {} is {v} (-inf or finite required)",
                        i / nc,
                        i % nc
                    ));
                }
            }
        }
        for (i, s) in fwd.slope.iter().enumerate() {
            for &v in s {
                if !v.is_finite() {
                    return corrupt(format!(
                        "slope at slot {}/corner {} is {v} (finite required)",
                        i / nc,
                        i % nc
                    ));
                }
            }
        }
        for (i, &d) in fwd.gate_delay_worst.iter().enumerate() {
            if !d.is_finite() {
                return corrupt(format!(
                    "worst gate delay at position {}/corner {} is {d} (finite required)",
                    i / nc,
                    i % nc
                ));
            }
        }

        let guard = self.backward.borrow();
        if let Some(bw) = guard.as_ref() {
            for (name, set) in [("required", &bw.req), ("required source", &bw.req_src)] {
                if let Err(e) = set.check_count() {
                    return corrupt(format!("{name} dirty set: {e}"));
                }
            }
            if bw.req_flushed_gen != self.gen {
                return corrupt(format!(
                    "backward state at generation {} behind mutation generation {} after a \
                     flush",
                    bw.req_flushed_gen, self.gen
                ));
            }
            if !bw.req.is_empty()
                || !bw.req_src.is_empty()
                || !bw.resized_log.is_empty()
                || !bw.req_net_log.is_empty()
                || !bw.slack_net_log.is_empty()
                || bw.refold_all
            {
                return corrupt(format!(
                    "flushed backward state still dirty: {} marks, {} PI sinks, {}+{}+{} seeds, \
                     refold_all {}",
                    bw.req.count(),
                    bw.req_src.count(),
                    bw.resized_log.len(),
                    bw.req_net_log.len(),
                    bw.slack_net_log.len(),
                    bw.refold_all
                ));
            }

            // Backward finiteness policy.
            for (i, r) in bw.required.iter().enumerate() {
                for &v in r {
                    if v.is_nan() || v == f64::NEG_INFINITY {
                        return corrupt(format!(
                            "required at slot {}/corner {} is {v} (+inf or finite required)",
                            i / nc,
                            i % nc
                        ));
                    }
                }
            }

            // Worst-slack tree: leaves against an independent refold of
            // the slabs, internal nodes (root included) against their
            // children.
            let keys: Vec<f64> = (0..n_nets)
                .map(|slot| slack_key(&bw.required, &fwd.arrival, nc, slot))
                .collect();
            if let Err(detail) = bw.worst.audit_against(&keys) {
                return corrupt(detail);
            }
        }
        Ok(())
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
        self.slot_of[net.index()] as usize
    }

    /// The net whose timing state occupies `slot`.
    fn net_at(&self, slot: usize) -> NetId {
        match slot.checked_sub(self.n_src) {
            Some(pos) => self.out_net[self.topo[pos].index()],
            None => self.sources[slot],
        }
    }

    /// Topo position of a gate.
    #[inline]
    fn pos(&self, gate: GateId) -> usize {
        self.rank[gate.index()] as usize
    }

    /// Slots of a gate's fanin nets, in pin order.
    fn fanin_slots_of(&self, gate: GateId) -> &[u32] {
        let gi = gate.index();
        &self.fanin_slots[self.fanin_off[gi] as usize..self.fanin_off[gi + 1] as usize]
    }

    /// Number of process corners the graph maintains (the stride of
    /// every per-corner slab; 1 for [`TimingGraph::new`] graphs).
    #[inline]
    pub fn n_corners(&self) -> usize {
        self.corner_libs.len()
    }

    /// The Vt variant a gate is currently implemented in.
    pub fn vt_class(&self, gate: GateId) -> VtClass {
        self.vt_class[gate.index()]
    }

    /// 0-based level of a topo position (`level_start` is sorted; empty
    /// levels cannot occur, but repeated starts would resolve correctly
    /// anyway).
    fn level_of(&self, pos: u32) -> usize {
        self.level_start.partition_point(|&s| s <= pos) - 1
    }

    /// Set one gate's input capacitance. The affected cone — the gate
    /// itself, the drivers of its fanin nets (their loads changed) and
    /// every downstream gate whose arrival or slope actually moves — is
    /// re-timed *lazily* by the first timing query.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range or `cin_ff` is not finite
    /// and positive (the [`TimingGraph::try_resize_gate`] rejections).
    pub fn resize_gate(&mut self, gate: GateId, cin_ff: f64) {
        self.resize_gates([(gate, cin_ff)]);
    }

    /// Fallible form of [`TimingGraph::resize_gate`].
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::try_resize_gates`].
    pub fn try_resize_gate(&mut self, gate: GateId, cin_ff: f64) -> Result<(), StaError> {
        self.try_resize_gates([(gate, cin_ff)])
    }

    /// Apply a batch of resizes. Nothing re-times here: each change is
    /// one append to the forward (and, under a constraint, backward)
    /// seed log, and the first timing query drains every batch since
    /// the last query in one merged rank-ordered propagation — cheaper
    /// than per-mutation flushes whenever the cones overlap (writing
    /// back a whole optimized path, a sensitivity round's probes).
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
    /// no half-applied mutation, no seed-log entry, no generation bump.
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
        let n_gates = self.rank.len();
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
            // Forward (lazy): the flush recomputes the fanin nets'
            // loads, re-times their drivers and re-evaluates the gate.
            self.fwd.get_mut().resized_log.push(gate);
            // Backward (lazy): arcs through this gate and through its
            // fanin drivers moved with its C_IN — one log append; the
            // flush expands it into the affected required-time marks.
            if let Some(bw) = self.backward.get_mut().as_mut() {
                bw.resized_log.push(gate);
            }
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
            self.gate_params[gi * nc + c] = gate_params_for(lib, self.cell[gi], class);
        }
        // Forward: the gate's delay, slope and arrival all re-derive
        // (loads are untouched — no fanin-driver re-time needed, but
        // over-seeding would be bit-safe anyway).
        self.fwd.get_mut().gate_log.push(gate);
        if let Some(bw) = self.backward.get_mut().as_mut() {
            // Backward: arcs *through* the gate moved, so its fanin
            // required times re-derive (the resized-log expansion
            // covers exactly that cone).
            bw.resized_log.push(gate);
        }
        self.gen = self.gen.wrapping_add(1);
        self.stat(|s| s.updates += 1);
        Ok(())
    }

    /// Switch to new analysis options. What they touch (all
    /// primary-output loads and/or all primary-input slopes) re-times
    /// lazily at the next forward query; any maintained backward state
    /// is invalidated wholesale — a latch load shifts every
    /// primary-output arc, an input slope every source arc — and the
    /// next backward query pays one full backward pass.
    pub fn set_options(&mut self, options: &AnalyzeOptions) {
        if self.options == *options {
            return;
        }
        self.gen = self.gen.wrapping_add(1);
        let po_changed = self.options.po_load_ff != options.po_load_ff;
        let slope_changed = self.options.input_transition_ps != options.input_transition_ps;
        self.options = options.clone();

        let fwd = self.fwd.get_mut();
        if po_changed {
            fwd.reload_pos = true;
        }
        if slope_changed {
            fwd.reslope_pis = true;
        }
        self.stat(|s| s.updates += 1);
        self.invalidate_backward();
    }

    /// Apply a batch of structural edits — buffer insertions, gate
    /// replacements, De Morgan rewrites — to the circuit *and* patch the
    /// timing state around them, instead of rebuilding from scratch.
    ///
    /// On the first call the graph clones the borrowed circuit into an
    /// owned copy (the caller's original netlist is never mutated);
    /// from then on [`TimingGraph::circuit`] is the authoritative,
    /// edited netlist. The graph then
    ///
    /// 1. applies the plan through the [`Circuit`] surgery primitives
    ///    (append-only: every pre-existing id stays valid),
    /// 2. rebuilds its structural arrays — topological ranks, flattened
    ///    adjacency, per-gate model constants — pure arena work with no
    ///    arc evaluations,
    /// 3. extends the per-gate/per-net timing state for the created ids
    ///    (new gates enter at their planned sizes, clamped to the
    ///    library minimum; new nets start unreached),
    /// 4. seeds the forward and backward dirty cones from the edit log:
    ///    every net whose load moved re-times its driver, every gate
    ///    whose cell/wiring changed re-evaluates, new gates evaluate for
    ///    the first time — and the usual bitwise-convergence propagation
    ///    confines the floating-point work to the affected cones.
    ///
    /// After the call every queryable value — arrivals, slopes, loads,
    /// required times, slacks — is **bit-identical** to a from-scratch
    /// [`TimingGraph`] built on the edited circuit under the same
    /// sizing, options and constraint (`tests/surgery_equivalence.rs`
    /// asserts this after every edit of random surgery/resize mixes).
    ///
    /// Returns the per-op [`AppliedEdit`] log (created gate/net ids).
    ///
    /// # Errors
    ///
    /// A malformed plan — out-of-range ids, non-finite or non-positive
    /// stage capacitances — is rejected by [`EditPlan::validate`]
    /// *before* anything is applied, so it cannot abort a long flow run
    /// or leave the graph half-edited. Past validation, the first
    /// failing op's [`NetlistError`] propagates; ops before it stay
    /// applied — the graph re-synchronizes its state to the partially
    /// edited circuit before returning, so it remains consistent and
    /// usable even on error.
    pub fn apply_edits(&mut self, plan: &EditPlan) -> Result<Vec<AppliedEdit>, NetlistError> {
        if plan.is_empty() {
            return Ok(Vec::new());
        }
        plan.validate(self.circuit.as_ref())?;
        let mut applied = Vec::with_capacity(plan.len());
        let mut first_err = None;
        {
            let circuit = self.circuit.to_mut();
            for op in plan.ops() {
                match op.apply_to(circuit) {
                    Ok(a) => applied.push(a),
                    Err(e) => {
                        // Resync to the applied prefix below so the
                        // graph stays consistent with its circuit.
                        first_err = Some(e);
                        break;
                    }
                }
            }
        }
        self.resync_after_surgery(&applied)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// [`TimingGraph::apply_edits`] behind the typed [`StaError`]
    /// boundary: netlist failures arrive as [`StaError::InvalidEdit`],
    /// with the same validate-first / partial-application semantics.
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::apply_edits`], wrapped in
    /// [`StaError::InvalidEdit`].
    pub fn try_apply_edits(&mut self, plan: &EditPlan) -> Result<Vec<AppliedEdit>, StaError> {
        self.apply_edits(plan).map_err(StaError::from)
    }

    /// Rebuild structure, extend state and seed the lazy re-time after
    /// the circuit was surgically edited. `applied` carries the created
    /// ids and suggested sizes; conservative seeding beyond it (the
    /// flush-time load-change scan over all nets) covers any edit the
    /// log understates. No arc is evaluated here — the whole cone
    /// re-time is deferred to the first timing query.
    fn resync_after_surgery(&mut self, applied: &[AppliedEdit]) -> Result<(), NetlistError> {
        let s = build_structure(self.circuit.as_ref())?;
        let n_gates = s.topo.len();
        let nc = self.corner_libs.len();

        // Surgery re-levels and re-ranks arbitrarily, and the slabs are
        // keyed by slot/position — keep the old keys to permute the
        // surviving state into the new layout below.
        let old_slot_of = std::mem::replace(&mut self.slot_of, s.slot_of);
        let old_rank = std::mem::replace(&mut self.rank, s.rank);
        self.topo = s.topo;
        self.level_start = s.level_start;
        self.n_src = s.n_src;
        self.sources = s.sources;
        self.net_driver = s.net_driver;
        self.cell = s.cell;
        // Created gates enter in the default Vt variant; surviving
        // gates keep theirs (ids are stable across append-only
        // surgery, so no remap is needed). The constants rebuild
        // wholesale — pure arithmetic over the corner libraries, no
        // arc evaluations.
        self.vt_class.resize(n_gates, VtClass::Svt);
        self.gate_params =
            build_gate_params(self.circuit.as_ref(), &self.corner_libs, &self.vt_class);
        self.out_net = s.out_net;
        self.fanin = s.fanin;
        self.fanin_off = s.fanin_off;
        self.fanin_slots = s.fanin_slots;
        self.fanout = s.fanout;
        self.fanout_off = s.fanout_off;
        self.is_po = s.is_po;
        self.pis = s.pis;
        self.pos = s.pos;

        // Per-gate / per-net timing state: existing entries keep their
        // values (they are still bit-correct wherever the edits did not
        // reach) — permuted into the new slot/rank layout — and new ids
        // get neutral initial state. Pending lazy seeds live in the
        // id-keyed logs, which survive append-only surgery untouched.
        {
            let fwd = self.fwd.get_mut();
            debug_assert!(fwd.dirty.is_empty(), "surgery over a drained queue");
            fwd.arrival = remap_slots(
                &fwd.arrival,
                &old_slot_of,
                &self.slot_of,
                [f64::NEG_INFINITY; 2],
                nc,
            );
            fwd.slope = remap_slots(&fwd.slope, &old_slot_of, &self.slot_of, [0.0; 2], nc);
            fwd.pred = remap_slots(&fwd.pred, &old_slot_of, &self.slot_of, [None, None], nc);
            fwd.load = remap_slots(&fwd.load, &old_slot_of, &self.slot_of, 0.0, 1);
            fwd.gate_delay_worst =
                remap_ranks(&fwd.gate_delay_worst, &old_rank, &self.rank, 0.0, nc);
            fwd.dirty = DirtySet::new(n_gates);
            // Load deltas are detected lazily: the cached loads are
            // still the pre-edit values, so the flush recompares every
            // net under the edited structure and seeds the drivers of
            // the ones that moved (forward *and* backward).
            fwd.scan_loads = true;
        }
        // Extend the sizing for the created gates, keyed by id — the
        // edit log lists each op's gates in creation order, but keying
        // (instead of trusting the traversal order) pins every size to
        // its gate regardless of log order, and makes a gapped or
        // duplicated id set a typed error rather than mis-sized gates.
        let min_drive = self.lib.min_drive_ff();
        self.sizing
            .try_extend_dense(applied.iter().flat_map(|edit| {
                edit.new_gates
                    .iter()
                    .zip(&edit.new_gate_cin_ff)
                    .map(|(&g, &cin)| (g, cin.max(min_drive)))
            }))
            .map_err(|e| NetlistError::InvalidId(e.to_string()))?;
        assert_eq!(self.sizing.len(), n_gates, "one size per gate");
        if let Some(bw) = self.backward.get_mut().as_mut() {
            bw.required = remap_slots(
                &bw.required,
                &old_slot_of,
                &self.slot_of,
                [f64::INFINITY; 2],
                nc,
            );
            // Marks cannot follow a re-ranking, but outside a flush a
            // dirty set is only ever empty or — after a wholesale
            // invalidation — full: re-invalidate under the new ranks.
            for (set, size) in [(&mut bw.req, n_gates), (&mut bw.req_src, self.n_src)] {
                let invalidated = !set.is_empty();
                *set = DirtySet::new(size);
                if invalidated {
                    set.fill();
                }
            }
            // The edit moved loads/drivers arbitrarily: refold the
            // worst-slack index wholesale at the next flush (its leaf
            // space just grew, and the O(nets) refold is noise next to
            // this rebuild's own O(V+E)).
            bw.refold_all = true;
        }

        // Seed the connectivity deltas from the edit log: nets whose
        // fanout set or driver changed, gates whose cell/wiring changed
        // and every created gate. (Load deltas are the flush-time scan
        // scheduled above.) Over-seeding is safe (the bitwise
        // convergence cut discards no-op re-evaluations); the goal is
        // only to never under-seed.
        for edit in applied {
            for &net in edit.touched_nets.iter().chain(&edit.new_nets) {
                if let Some(bw) = self.backward.get_mut() {
                    bw.req_net_log.push(net);
                }
                if let Some(driver) = self.net_driver[net.index()] {
                    self.seed_edited_gate(driver);
                }
                let (lo, hi) = (
                    self.fanout_off[net.index()] as usize,
                    self.fanout_off[net.index() + 1] as usize,
                );
                for i in lo..hi {
                    let g = self.fanout[i];
                    self.seed_edited_gate(g);
                }
            }
            for &g in edit.touched_gates.iter().chain(&edit.new_gates) {
                self.seed_edited_gate(g);
            }
        }

        self.gen = self.gen.wrapping_add(1);
        self.stat(|s| {
            s.updates += 1;
            s.structural_edits += applied.len();
        });
        Ok(())
    }

    /// Log one gate whose cell, wiring, drive or environment a
    /// structural edit may have changed: re-evaluate it forward at the
    /// next flush, and re-derive its fanin required times at the next
    /// backward flush (the resized-log expansion covers the fanins).
    fn seed_edited_gate(&mut self, g: GateId) {
        self.fwd.get_mut().gate_log.push(g);
        if let Some(bw) = self.backward.get_mut().as_mut() {
            bw.resized_log.push(g);
        }
    }

    // ---- query surface (mirrors `TimingReport`) ----
    //
    // Every forward query is a flushing query: it first drains the
    // pending lazy seeds (one merged forward cone for everything since
    // the last query), then answers from the settled state.

    /// Worst arrival time over all primary outputs (ps), on the primary
    /// corner.
    pub fn critical_delay_ps(&self) -> f64 {
        self.critical_delay_ps_corner(0)
    }

    /// [`TimingGraph::critical_delay_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn critical_delay_ps_corner(&self, corner: usize) -> f64 {
        self.flush_forward();
        let nc = self.corner_libs.len();
        let fwd = self.fwd.borrow();
        fwd.critical_net[corner]
            .map(|(n, e)| fwd.arrival[self.slot(n) * nc + corner][eidx(e)])
            .unwrap_or(0.0)
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

    /// Exact load of one net under the current sizing and options,
    /// computed without touching the cached slab: the full pass's
    /// summation order (the flattened fanout array preserves the
    /// circuit's load-pin order), so it reproduces the flushed value bit
    /// for bit.
    fn fresh_net_load(&self, i: usize) -> f64 {
        let (lo, hi) = (self.fanout_off[i] as usize, self.fanout_off[i + 1] as usize);
        let mut load = 0.0;
        for &g in &self.fanout[lo..hi] {
            load += self.sizing.cin_ff(g);
        }
        if self.is_po[i] {
            load += self.options.po_load_ff;
        }
        load
    }

    /// Worst-case delay of a gate (ps) under the current slopes, on the
    /// primary corner.
    pub fn gate_delay_worst_ps(&self, gate: GateId) -> f64 {
        self.gate_delay_worst_ps_corner(gate, 0)
    }

    /// [`TimingGraph::gate_delay_worst_ps`] on one corner.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= n_corners()`.
    pub fn gate_delay_worst_ps_corner(&self, gate: GateId, corner: usize) -> f64 {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_forward();
        let nc = self.corner_libs.len();
        self.fwd.borrow().gate_delay_worst[self.rank[gate.index()] as usize * nc + corner]
    }

    /// The most critical path: traceback from the worst primary output,
    /// following the primary corner's predecessors.
    ///
    /// Returns an empty path only for circuits without gates.
    pub fn critical_path(&self) -> NetlistPath {
        self.flush_forward();
        let nc = self.corner_libs.len();
        let fwd = self.fwd.borrow();
        let Some((net, edge)) = fwd.critical_net[0] else {
            return NetlistPath {
                gates: Vec::new(),
                end_edge: EdgeDir::Rising,
            };
        };
        let mut gates = Vec::new();
        let mut cur = Some((net, edge));
        while let Some((n, e)) = cur {
            if let Some(gid) = self.net_driver[n.index()] {
                gates.push(gid);
            }
            cur = fwd.pred[self.slot(n) * nc][eidx(e)];
        }
        gates.reverse();
        NetlistPath {
            gates,
            end_edge: edge.into(),
        }
    }

    // ---- backward query surface (mirrors `SlackReport`) ----

    /// Set the cycle constraint and start maintaining the backward
    /// state (required times and slacks) under it. The first call — and
    /// every call with a *different* `tc_ps`, since required times are
    /// subtract-chains from the constraint, not offsets of it —
    /// schedules one full backward pass, paid by the first backward
    /// query (the lazy flush); from then on mutations only accumulate
    /// dirty seeds and each query drains whatever accumulated in one
    /// merged O(backward cone) pass.
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
        let n_nets = self.circuit.net_count();
        let n_gates = self.circuit.gate_count();
        let nc = self.corner_libs.len();
        self.gen = self.gen.wrapping_add(1);
        *self.backward.get_mut() = Some(BackwardState {
            tc_ps,
            required: vec![[f64::INFINITY; 2]; n_nets * nc],
            req: DirtySet::new(n_gates),
            req_src: DirtySet::new(self.n_src),
            // One behind: the first backward query performs the flush
            // that doubles as the initial full backward pass.
            req_flushed_gen: self.gen.wrapping_sub(1),
            resized_log: Vec::new(),
            req_net_log: Vec::new(),
            slack_net_log: Vec::new(),
            worst: WorstSlackIndex::new(n_nets),
            refold_all: false,
        });
        self.invalidate_backward();
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
    /// constraint. Like every backward query, flushes pending lazy
    /// seeds first (one merged cone for everything since the last
    /// query).
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
        self.flush_required();
        let nc = self.corner_libs.len();
        self.backward().required[self.slot(net) * nc + corner][eidx(edge.into())]
    }

    /// Slack of a net for an edge (ps): `required − arrival`, on the
    /// primary corner. Finite or `+inf`, never NaN (see
    /// [`crate::slack`]'s module docs).
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
        self.flush_required();
        let nc = self.corner_libs.len();
        let i = eidx(edge.into());
        let entry = self.slot(net) * nc + corner;
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
    /// outputs). Read off the maintained tournament tree: O(1) after
    /// the flush, bit-identical to the full fold over all nets (each
    /// leaf is its net's min over corners). On a single-corner graph
    /// this is exactly the pre-corner design-worst slack.
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`].
    pub fn worst_slack_overall_ps(&self) -> Option<f64> {
        self.flush_required();
        self.backward().worst.worst()
    }

    /// Worst finite slack over the whole design on **one** corner;
    /// `None` when no net carries a finite slack there. O(nets) per
    /// call — the maintained tournament tree folds corners into its
    /// leaves, so a single corner's view re-folds the slabs (same `min`
    /// semantics, bit-identical to an independent single-corner graph's
    /// [`TimingGraph::worst_slack_overall_ps`]).
    ///
    /// # Panics
    ///
    /// As [`TimingGraph::required_ps`]; also if `corner >= n_corners()`.
    pub fn worst_slack_overall_ps_corner(&self, corner: usize) -> Option<f64> {
        assert!(corner < self.corner_libs.len(), "corner out of range");
        self.flush_required();
        let nc = self.corner_libs.len();
        let fwd = self.fwd.borrow();
        let bw = self.backward();
        let mut worst = f64::INFINITY;
        for slot in 0..self.slot_of.len() {
            let entry = slot * nc + corner;
            worst = min2(
                worst,
                WorstSlackIndex::key(bw.required[entry], fwd.arrival[entry]),
            );
        }
        (worst != f64::INFINITY).then_some(worst)
    }

    // ---- forward internals ----

    /// Store a net's exact load (see [`TimingGraph::fresh_net_load`]).
    /// Takes the raw net index so whole-array sweeps need no id
    /// round-trip.
    fn recompute_net_load(&self, fwd: &mut ForwardState, net: usize) {
        fwd.load[self.slot_of[net] as usize] = self.fresh_net_load(net);
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
    fn flush_forward(&self) {
        let mut guard = self.fwd.borrow_mut();
        let fwd = &mut *guard;
        if fwd.flushed_gen == self.gen {
            return;
        }
        fwd.flushed_gen = self.gen;
        if !fwd.scan_loads
            && !fwd.reload_pos
            && !fwd.reslope_pis
            && fwd.resized_log.is_empty()
            && fwd.gate_log.is_empty()
        {
            return;
        }
        let mut bw_guard = self.backward.borrow_mut();
        let mut bw = bw_guard.as_mut();
        let n_gates = self.topo.len();
        let n_nets = self.net_driver.len();

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
                let slot = self.slot_of[net] as usize;
                let old = fwd.load[slot];
                self.recompute_net_load(fwd, net);
                if old.to_bits() == fwd.load[slot].to_bits() {
                    continue;
                }
                if let Some(driver) = self.net_driver[net] {
                    fwd.dirty.mark(self.pos(driver));
                    if let Some(bw) = bw.as_deref_mut() {
                        bw.resized_log.push(driver);
                    }
                }
            }
        }
        if fwd.reload_pos {
            fwd.reload_pos = false;
            for &net in &self.pos {
                self.recompute_net_load(fwd, net.index());
                if let Some(driver) = self.net_driver[net.index()] {
                    fwd.dirty.mark(self.pos(driver));
                }
            }
        }
        if fwd.reslope_pis {
            fwd.reslope_pis = false;
            let nc = self.corner_libs.len();
            for &pi in &self.pis {
                let slot = self.slot(pi);
                for c in 0..nc {
                    for e in EDGES {
                        fwd.slope[slot * nc + c][eidx(e)] = self.options.input_transition_ps;
                    }
                }
                let (lo, hi) = (self.fanout_off[pi.index()], self.fanout_off[pi.index() + 1]);
                for j in lo..hi {
                    fwd.dirty.mark(self.pos(self.fanout[j as usize]));
                }
            }
        }
        let mut resized = std::mem::take(&mut fwd.resized_log);
        for gate in resized.drain(..) {
            // The fanin nets' loads moved with the gate's C_IN: their
            // drivers re-time, and the gate's own drive changed.
            let (lo, hi) = (
                self.fanin_off[gate.index()] as usize,
                self.fanin_off[gate.index() + 1] as usize,
            );
            for i in lo..hi {
                let in_net = self.fanin[i];
                self.recompute_net_load(fwd, in_net.index());
                if let Some(driver) = self.net_driver[in_net.index()] {
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
                        let out = self.out_net[self.topo[pos].index()].index();
                        let (lo, hi) = (self.fanout_off[out], self.fanout_off[out + 1]);
                        for &g in &self.fanout[lo as usize..hi as usize] {
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
            topo: &self.topo,
            cell: &self.cell,
            gate_params: &self.gate_params,
            n_corners: self.corner_libs.len(),
            vt_class: &self.vt_class,
            fanin: &self.fanin,
            fanin_slots: &self.fanin_slots,
            fanin_off: &self.fanin_off,
            cins: self.sizing.as_slice(),
            n_src: self.n_src,
            fanout: &self.fanout,
            fanout_off: &self.fanout_off,
            rank: &self.rank,
            is_po: &self.is_po,
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
            let gid = self.topo[pos];
            if flags & F_SLOPE != 0 {
                bw.req_net_log.push(self.out_net[gid.index()]);
            }
            if flags & F_ARRIVAL != 0 {
                bw.slack_net_log.push(self.out_net[gid.index()]);
            }
        }
        flags & F_OUT_CHANGED != 0
    }

    /// Evaluate every gate once in topological order — exactly the full
    /// pass of `analyze_with` — streaming the slabs in memory order, and
    /// clear the dirty set it subsumes. Returns whether any output
    /// moved.
    fn full_forward_sweep(
        &self,
        fwd: &mut ForwardState,
        mut bw: Option<&mut BackwardState>,
    ) -> bool {
        let ctx = self.eval_ctx();
        let (mut view, dirty) = fwd.split();
        dirty.clear();
        let mut any_changed = false;
        for pos in 0..self.topo.len() {
            any_changed |= self.forward_step(&mut view, &ctx, &mut bw, pos);
        }
        any_changed
    }

    /// Same worst-output scan (and tie-breaking order) as the full
    /// pass, run independently per corner.
    fn recompute_critical(&self, fwd: &mut ForwardState) {
        let nc = self.corner_libs.len();
        for c in 0..nc {
            let mut critical: Option<(NetId, Edge, f64)> = None;
            for &po in &self.pos {
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
        match slot.checked_sub(self.n_src) {
            Some(pos) => req.mark(pos),
            None => req_src.mark(slot),
        }
    }

    /// Invalidate the whole backward state *lazily*: mark every net
    /// dirty and schedule a wholesale worst-slack refold, without
    /// draining — the next backward query pays one full backward pass
    /// (every position is marked, so [`TimingGraph::drain_limit`] picks
    /// the sweep). Pending backward seed logs are subsumed and
    /// discarded. Used where incremental seeding is unsound: constraint
    /// changes (required times are subtract-chains from `tc`, not
    /// offsets) and option changes (every primary-output arc and/or
    /// source arc moves).
    fn invalidate_backward(&mut self) {
        let Some(bw) = self.backward.get_mut().as_mut() else {
            return;
        };
        bw.req.fill();
        bw.req_src.fill();
        bw.resized_log.clear();
        bw.req_net_log.clear();
        bw.slack_net_log.clear();
        bw.refold_all = true;
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
    fn flush_required(&self) {
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
                if let Some(pos) = (s as usize).checked_sub(self.n_src) {
                    for &d in self.fanin_slots_of(self.topo[pos]) {
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
                |pos| eval(self.n_src + pos),
                |pos, req| {
                    for &s in self.fanin_slots_of(self.topo[pos]) {
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
            req_reevals += self.slot_of.len();
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
        let n_nets = self.slot_of.len();
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
        for net in 0..self.slot_of.len() {
            let base = self.slot_of[net] as usize * nc;
            let init = if self.is_po[net] {
                [bw.tc_ps; 2]
            } else {
                [f64::INFINITY; 2]
            };
            bw.required[base..base + nc].fill(init);
        }
        let ctx = self.eval_ctx();
        let mut view = bwd_view(fwd, bw.tc_ps, &mut bw.required);
        for pos in (0..self.topo.len()).rev() {
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
        let n = self.topo.len();
        let (budget, limit) = match dir {
            Direction::Forward => (n * 3 / 4 + 1, usize::MAX),
            Direction::Backward => (n / 3 + 1, n / 3 + 1),
        };
        let count = set.count();
        if count >= budget {
            return None;
        }
        if count >= 32 {
            if let Some((lo, hi, hit)) = set.level_profile(&self.level_start) {
                let n_levels = self.level_start.len() - 1;
                let (levels, span) = match dir {
                    Direction::Forward => (n_levels - lo, n - self.level_start[lo] as usize),
                    Direction::Backward => (hi + 1, self.level_start[hi + 1] as usize),
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
fn slack_key(required: &[[f64; 2]], arrival: &[[f64; 2]], nc: usize, slot: usize) -> f64 {
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

    #[test]
    fn set_options_matches_full_analysis_under_new_options() {
        let lib = Library::cmos025();
        let c = ripple_carry_adder(6);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let new = AnalyzeOptions {
            po_load_ff: 42.0,
            input_transition_ps: 120.0,
        };
        graph.set_options(&new);
        assert_matches_fresh(&graph, &c, &lib);
        let fresh = analyze_with(&c, &lib, graph.sizing(), &new).unwrap();
        assert_eq!(
            graph.critical_delay_ps().to_bits(),
            fresh.critical_delay_ps().to_bits()
        );
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
    fn set_options_invalidates_and_rebuilds_backward_state() {
        let lib = Library::cmos025();
        let c = ripple_carry_adder(6);
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(1.1 * graph.critical_delay_ps());
        graph.set_options(&AnalyzeOptions {
            po_load_ff: 35.0,
            input_transition_ps: 90.0,
        });
        assert_matches_fresh(&graph, &c, &lib);
        assert_backward_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn backward_update_touches_only_a_cone() {
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.9 * graph.critical_delay_ps());
        // Settle the initial (lazy) full backward pass.
        let _ = graph.worst_slack_overall_ps();
        let after_build = graph.stats();
        let g = c.gate_ids().nth(c.gate_count() / 2).unwrap();
        graph.resize_gate(g, 3.0 * lib.min_drive_ff());
        // The flush is query-driven: read slack to drain the seeds.
        let _ = graph.worst_slack_overall_ps();
        let stats = graph.stats();
        let reevals = stats.required_reevaluated - after_build.required_reevaluated;
        assert!(
            reevals < c.net_count(),
            "backward cone {} must be smaller than the circuit {}",
            reevals,
            c.net_count()
        );
    }

    #[test]
    fn mutations_alone_never_trigger_a_flush() {
        let lib = Library::cmos025();
        let c = suite::circuit("c432").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        graph.set_constraint(0.9 * graph.critical_delay_ps());
        // Even the initial full backward pass is lazy: nothing has been
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
        // One query drains the merged cone of all 32 resizes at once…
        let _ = graph.worst_slack_overall_ps();
        assert_eq!(graph.stats().backward_flushes, settled.backward_flushes + 1);
        // …and a second read without mutations does no further work.
        let _ = graph.worst_slack_overall_ps();
        assert_eq!(graph.stats().backward_flushes, settled.backward_flushes + 1);
        assert_backward_matches_fresh(&graph, &c, &lib);
    }

    #[test]
    fn worst_slack_index_matches_the_full_fold() {
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s = Sizing::minimum(&c, &lib);
        let mut graph = TimingGraph::new(&c, &lib, &s).unwrap();
        let tc = 0.95 * graph.critical_delay_ps();
        graph.set_constraint(tc);
        let gates: Vec<GateId> = c.gate_ids().collect();
        for (i, &g) in gates.iter().enumerate().step_by(7) {
            graph.resize_gate(g, (1.0 + (i % 9) as f64 * 0.4) * lib.min_drive_ff());
            // Tournament-tree root vs the O(nets) fold over a fresh
            // backward pass: bit-identical at every step.
            let fresh = crate::slack::required_times(&c, &lib, graph.sizing(), &graph, tc).unwrap();
            assert_eq!(
                graph.worst_slack_overall_ps().map(f64::to_bits),
                fresh.worst_slack_overall_ps().map(f64::to_bits),
            );
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
    fn buffer_insertion_patches_state_bit_identically() {
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
    fn demorgan_patches_state_and_preserves_logic() {
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
