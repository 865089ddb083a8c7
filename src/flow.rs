//! Circuit-level optimization flow: the paper's "user specified limited
//! number of paths" loop (§2.1, refs. \[11\]–\[12\]).
//!
//! POPS does not size whole circuits monolithically; it analyzes once,
//! extracts the K most critical paths, optimizes each as a bounded path
//! (most critical first), writes the sizes back, and re-times. Where
//! sizing alone stalls — a path whose required time sits below its
//! sizing-only `Tmin` — the flow now *applies* the paper's structure
//! modifications to the netlist: over-limit nets of the stalled paths
//! get Inv-pair buffers (§4.1), over-limit NORs their De Morgan
//! rewrite (§4.2), both as an [`EditPlan`] written back through
//! [`TimingGraph::apply_edits`], after which the next timing read runs
//! one full pass in each direction.
//!
//! The loop stops when the constraint holds, when a round sizes no path,
//! when a round settles (it ends on the netlist and sizing it began
//! with, so every later round would repeat it bit for bit), or when the
//! round budget runs out; [`FlowResult::stop`] records which. A settled
//! loop counts the rounds it skipped as run, so every [`FlowResult`]
//! field equals the full loop's.

use std::collections::{HashMap, HashSet};

use pops_core::buffer::{plan_buffer_insertions, FlimitCache};
use pops_core::protocol::{optimize, ProtocolOptions, Technique};
use pops_core::restructure::plan_demorgan_restructure;
use pops_core::OptimizeError;
use pops_delay::power::leakage_nw;
use pops_delay::{CornerSet, Library};
use pops_netlist::surgery::{EditOp, EditPlan};
use pops_netlist::{Circuit, GateId, NetId, NetlistError, VtClass};
use pops_sta::analysis::{AnalyzeOptions, EdgeDir, NetlistPath};
use pops_sta::{extract_timed_path, k_most_critical_paths, Sizing, TimingGraph};

/// Options for a circuit-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// How many critical paths to optimize per round (the paper's
    /// "user specified limited number of paths").
    pub paths_per_round: usize,
    /// Maximum optimize/re-time rounds.
    pub max_rounds: usize,
    /// Protocol options for each path. Per-path solving always runs
    /// structure-conserving (sizes write back one-to-one); stalled
    /// paths escalate to netlist surgery when `apply_structure` is on.
    pub protocol: ProtocolOptions,
    /// Timing and extraction options (latch load, input slope): the
    /// flow's timing graphs — the sizing graph and the Vt pass's
    /// multi-corner graph — and its path extraction all run under them.
    pub extract: AnalyzeOptions,
    /// Write structure modifications back into the netlist when sizing
    /// stalls: buffer insertion past `Flimit` and De Morgan rewrites of
    /// over-limit NORs on the stalled critical paths.
    pub apply_structure: bool,
    /// Hard cap on structural edits applied over the whole run.
    pub max_edits: usize,
    /// After sizing converges, demote slack-rich gates to high-Vt cells
    /// to cut subthreshold leakage. Each demotion is probed on a
    /// slow/typical/fast multi-corner timing view and kept only when
    /// the design-worst slack stays non-negative at **every** corner.
    /// Off by default: it adds a multi-corner re-analysis pass, and the
    /// timing-only flows (and their bit-identity tests) don't want it.
    pub vt_assignment: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            paths_per_round: 8,
            max_rounds: 8,
            protocol: ProtocolOptions::default(),
            extract: AnalyzeOptions::default(),
            apply_structure: true,
            max_edits: 64,
            vt_assignment: false,
        }
    }
}

/// Per-round growth cap: a gate may grow by at most this factor per
/// round. Damps the side-load shock a freshly upsized path inflicts on
/// its fan-in cone (upsizing a pin slows the gate that drives it).
const ROUND_GROWTH_CAP: f64 = 3.0;

/// Errors from the circuit-level flow.
#[derive(Debug)]
pub enum FlowError {
    /// The netlist is structurally broken.
    Netlist(NetlistError),
    /// A path could not satisfy the constraint even after modification.
    Optimize(OptimizeError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Optimize(e) => write!(f, "optimization error: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<OptimizeError> for FlowError {
    fn from(e: OptimizeError) -> Self {
        FlowError::Optimize(e)
    }
}

/// Result of a circuit-level optimization.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The optimized netlist. Identical in structure to the input
    /// unless structural edits were applied — `sizing` indexes *this*
    /// circuit's gates, so the pair is always consistent.
    pub circuit: Circuit,
    /// Final sizing of every gate of `circuit`.
    pub sizing: Sizing,
    /// Critical delay before optimization (ps).
    pub initial_delay_ps: f64,
    /// Critical delay after optimization (ps).
    pub final_delay_ps: f64,
    /// Total input capacitance after optimization (fF).
    pub total_cin_ff: f64,
    /// Paths sized (solved and written back), summed over `rounds`.
    /// After [`FlowStop::Settled`] the settled round's paths count once
    /// more for each round the loop skipped.
    pub paths_optimized: usize,
    /// Structural edits present in the returned `circuit` (buffer
    /// pairs + De Morgan rewrites) — the applied successor of the old
    /// advisory `structure_recommendations` count. Counted at the
    /// best-result snapshot, so it always describes `circuit`: edits
    /// applied later that never beat that result are not included.
    pub edits_applied: usize,
    /// Inv-pair buffers inserted past `Flimit` (in `circuit`).
    pub buffers_inserted: usize,
    /// NOR gates replaced by their De Morgan form (in `circuit`).
    pub gates_restructured: usize,
    /// Cumulative design-worst-slack change measured across the edit
    /// applications up to the best-result snapshot (ps; positive = the
    /// edits bought slack). The edits land at conservative initial
    /// sizes, so most of their value is realized by the sizing rounds
    /// that follow.
    pub edit_slack_gain_ps: f64,
    /// Rounds of the loop, counting the round that stopped it. After
    /// [`FlowStop::Settled`] this is [`FlowOptions::max_rounds`]: the
    /// rounds the loop skipped would each have repeated the settled one,
    /// and they count as run.
    pub rounds: usize,
    /// Why the loop stopped.
    pub stop: FlowStop,
    /// Vt class of every gate of `circuit` (gate-id indexed). All-SVT
    /// unless [`FlowOptions::vt_assignment`] demoted slack-rich gates.
    pub vt_classes: Vec<VtClass>,
    /// Gates demoted to high-Vt by the leakage pass.
    pub hvt_gates: usize,
    /// Total subthreshold leakage of the returned implementation (nW):
    /// every gate's [`leakage_nw`] under its final width and Vt class.
    pub leakage_nw: f64,
}

/// Why [`optimize_circuit`]'s sizing loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStop {
    /// A round began with no output missing tc
    /// ([`TimingGraph::meets_constraint`] not `Some(false)`; `tc = +inf`
    /// included).
    ConstraintMet,
    /// A round sized no path and applied no structural edit.
    NoPathSized,
    /// Round `round` (1-based) applied no structural edit and wrote back
    /// the very sizing it started from, so every later round would repeat
    /// it bit for bit.
    Settled {
        /// The round that changed nothing.
        round: usize,
    },
    /// The loop ran all [`FlowOptions::max_rounds`] rounds, and the last
    /// one still changed the netlist or the sizing.
    RoundLimit,
}

/// Optimize a circuit's K most critical paths under `tc_ps`.
///
/// Round structure: time the design, enumerate the K worst paths, run
/// the structure-conserving sizing protocol on each (sizes write back
/// through batched dirty-cone re-timing), then — when sizing stalled on
/// some paths and slack is still negative — apply the Fig. 7 structure
/// modifications to the netlist itself: Inv-pair buffers on the stalled
/// paths' over-limit nets (keeping the on-path successor direct) and
/// De Morgan rewrites of their over-limit NORs, written back via
/// [`TimingGraph::apply_edits`] (the next timing read re-times the
/// edited netlist in one full pass each way). Repeat until the
/// constraint holds at every output, a round sizes no path, a round
/// settles (it ends on the netlist and sizing it started from), or the
/// round budget is exhausted; [`FlowResult::stop`] says which.
///
/// The input circuit is never mutated: the first applied edit clones it
/// into the graph (copy-on-write), and the edited netlist is returned
/// in [`FlowResult::circuit`].
///
/// # Errors
///
/// [`FlowError::Optimize`] wrapping [`OptimizeError::InvalidConstraint`]
/// when `tc_ps` is NaN, zero or negative (`+inf` is accepted: nothing is
/// critical, and the flow returns the input timing). [`FlowError::Netlist`]
/// for structural problems. An infeasible path is *not* an error: the
/// flow reports the best delay reached; callers check `final_delay_ps`
/// against `tc_ps`.
///
/// # Example
///
/// ```
/// use pops::flow::{optimize_circuit, FlowOptions};
/// use pops::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = Library::cmos025();
/// let adder = pops::netlist::builders::ripple_carry_adder(4);
/// let baseline = {
///     let s = Sizing::minimum(&adder, &lib);
///     analyze(&adder, &lib, &s)?.critical_delay_ps()
/// };
/// let result = optimize_circuit(&adder, &lib, 0.8 * baseline, &FlowOptions::default())?;
/// assert!(result.final_delay_ps < baseline);
/// # Ok(())
/// # }
/// ```
pub fn optimize_circuit(
    circuit: &Circuit,
    lib: &Library,
    tc_ps: f64,
    options: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    if tc_ps.is_nan() || tc_ps <= 0.0 {
        return Err(OptimizeError::InvalidConstraint { tc_ps }.into());
    }
    // The timing picture is built once and kept consistent lazily: a
    // whole round's batched resizes only mark the forward dirty set —
    // no `resize_gates` call below forces a forward pass — and the
    // first timing read after them flushes them as one merged forward
    // cone (so overlapping per-path write-backs deduplicate instead of
    // each paying its own propagation). A structural edit resets the
    // state instead: the read after `apply_edits` runs one full pass in
    // each direction. Setting the constraint adds the backward state —
    // per-net required times — which the first slack read after a
    // mutation re-derives in one full backward sweep. The sign tests
    // ask `meets_constraint`, which answers from the forward state (the
    // latest output arrival against tc) and flushes backward only
    // inside a proven rounding band, so required times re-derive only
    // where a slack value is read: the edit gain, the endpoints that
    // feed gates and the structural planner.
    let mut graph = TimingGraph::with_options(
        circuit,
        lib,
        &Sizing::minimum(circuit, lib),
        &options.extract,
    )?;
    graph.set_constraint(tc_ps);
    let initial_delay_ps = graph.critical_delay_ps();

    // Per-path solving conserves structure (sizes write back onto the
    // existing gates one-to-one); stalled paths escalate to netlist
    // surgery below instead of per-path protocol rewrites.
    let conserve = ProtocolOptions {
        allow_buffers: false,
        allow_restructuring: false,
        ..options.protocol.clone()
    };

    let mut paths_optimized = 0;
    let mut edits_applied = 0;
    let mut buffers_inserted = 0;
    let mut gates_restructured = 0;
    let mut edit_slack_gain_ps = 0.0;
    let mut rounds = 0;
    // Best-result snapshot: delay, sizing, circuit *and* the edit
    // counters are captured together, so the returned `FlowResult`
    // always describes the returned netlist (edits applied after the
    // snapshot — or ones that never beat the pre-edit best — are not
    // reported as part of it).
    let mut best_sizing = graph.sizing().clone();
    // `None` while the best netlist is the input: only an applied edit
    // makes the graph's netlist worth a copy.
    let mut best_circuit: Option<Circuit> = None;
    let mut best_delay = initial_delay_ps;
    let mut best_edits = (0usize, 0usize, 0usize, 0.0f64);
    let mut flimits = FlimitCache::new();
    let mut stop = FlowStop::RoundLimit;

    for _ in 0..options.max_rounds {
        rounds += 1;
        // Slack-driven convergence: stop when no net misses its
        // required time.
        if graph.meets_constraint() != Some(false) {
            stop = FlowStop::ConstraintMet;
            break;
        }
        let round_entry_delay = graph.critical_delay_ps();
        let round_start = graph.sizing().clone();
        let paths_before = paths_optimized;
        let paths = k_most_critical_paths(graph.circuit(), &graph, options.paths_per_round);
        let mut any_change = false;
        let mut edited = false;
        // Paths whose constraint sat below the sizing-only Tmin this
        // round: the structure-modification candidates.
        let mut stalled: Vec<NetlistPath> = Vec::new();
        for path in &paths {
            let Some(&last) = path.gates.last() else {
                continue;
            };
            let endpoint = graph.circuit().gate(last).output();
            // Slack-driven selection: skip endpoints already meeting
            // their required time. At a pure primary output this is
            // exactly `arrival <= tc`; where the PO net also feeds
            // internal logic the requirement is tighter.
            if graph.worst_slack_ps(endpoint) >= 0.0 {
                continue;
            }
            // The per-path budget is the endpoint's required time, not
            // the raw constraint (guarded for pathological sub-zero
            // requirements under unreachable constraints).
            let required = graph
                .required_ps(endpoint, EdgeDir::Rising)
                .min(graph.required_ps(endpoint, EdgeDir::Falling));
            let budget = if required.is_finite() && required > 0.0 {
                required
            } else {
                tc_ps
            };
            let extracted =
                extract_timed_path(graph.circuit(), lib, graph.sizing(), path, &options.extract);
            let solution = match optimize(lib, &extracted.timed, budget, &conserve) {
                Ok(outcome) => {
                    debug_assert_eq!(outcome.technique, Technique::SizingOnly);
                    Some(outcome.sizes)
                }
                Err(OptimizeError::Infeasible { .. }) => {
                    // Sizing alone cannot make this path: remember it
                    // for the structural pass and at least push it
                    // toward its sizing Tmin meanwhile.
                    stalled.push(path.clone());
                    let bounds = pops_core::bounds::delay_bounds(lib, &extracted.timed);
                    Some(bounds.tmin_sizes)
                }
                Err(e) => return Err(e.into()),
            };
            if let Some(mut sizes) = solution {
                // Damp per-round growth to keep the fan-in cones of the
                // resized gates from being shocked by sudden pin loads.
                for (s, &g) in sizes.iter_mut().zip(&extracted.gates) {
                    let cap = round_start.cin_ff(g) * ROUND_GROWTH_CAP;
                    *s = s.min(cap).max(lib.min_drive_ff());
                }
                sizes[0] = extracted.timed.source_drive_ff();
                // One batched write-back for the whole path; nothing
                // re-times until the next path's slack read (or the
                // round boundary) flushes every batch since then as
                // one merged cone.
                let changes: Vec<(GateId, f64)> = extracted
                    .gates
                    .iter()
                    .copied()
                    .zip(sizes.iter().copied())
                    .collect();
                graph.resize_gates(changes);
                paths_optimized += 1;
                any_change = true;
            }
        }

        // Structural write-back: when sizing stalled — paths below
        // their sizing-only Tmin *and* no critical-delay progress this
        // round — and slack is still negative, buffer the stalled
        // paths' over-limit nets and De Morgan their over-limit NORs,
        // then re-time.
        let sizing_plateaued = graph.critical_delay_ps() >= round_entry_delay - 1e-9;
        if options.apply_structure
            && sizing_plateaued
            && !stalled.is_empty()
            && edits_applied < options.max_edits
            && graph.meets_constraint() == Some(false)
        {
            // One path per round: surgery is cheap to apply but shifts
            // the timing landscape, so edit the most critical stalled
            // path, re-time, and let the next round re-rank before
            // touching more (piling edits onto every stalled path at
            // once was measurably worse on the NOR-rich suite blocks).
            let budget = options.max_edits - edits_applied;
            let plan = plan_structural_edits(&graph, lib, &stalled[..1], &mut flimits, budget);
            if !plan.is_empty() {
                let ws_before = graph.worst_slack_overall_ps().unwrap_or(0.0);
                let applied = graph.apply_edits(&plan)?;
                edits_applied += applied.len();
                for op in plan.ops() {
                    match op {
                        EditOp::InsertBuffer { .. } => buffers_inserted += 1,
                        EditOp::DeMorgan { .. } => gates_restructured += 1,
                    }
                }
                edit_slack_gain_ps += graph.worst_slack_overall_ps().unwrap_or(0.0) - ws_before;
                any_change = true;
                edited = true;
            }
        }

        if graph.critical_delay_ps() < best_delay {
            best_delay = graph.critical_delay_ps();
            best_sizing = graph.sizing().clone();
            best_circuit = (edits_applied > 0).then(|| graph.circuit().clone());
            best_edits = (
                edits_applied,
                buffers_inserted,
                gates_restructured,
                edit_slack_gain_ps,
            );
        }
        if !any_change {
            stop = FlowStop::NoPathSized;
            break;
        }
        // Fixed point: a round reads only the netlist, the sizing, the
        // constraint, the graph's Vt classes (all SVT here) and
        // `edits_applied`; the graph answers bit for bit as a full pass
        // over them and `FlimitCache` keeps no state. A round that
        // applied no edit and wrote back its start sizing (sizes are
        // positive, so `==` is bitwise) leaves all of them as it found
        // them, so every later round would repeat it bit for bit: no
        // break fires, none beats the best snapshot (the test is a
        // strict `<`), and the Vt pass below sees the same best pair.
        // Stop here and count those repeats as the full loop would
        // (saturating, since `max_rounds` may be as large as `usize::MAX`).
        if !edited && *graph.sizing() == round_start {
            let skipped = options.max_rounds - rounds;
            paths_optimized = skipped
                .saturating_mul(paths_optimized - paths_before)
                .saturating_add(paths_optimized);
            stop = FlowStop::Settled { round: rounds };
            rounds = options.max_rounds;
            break;
        }
    }

    let (edits_applied, buffers_inserted, gates_restructured, edit_slack_gain_ps) = best_edits;
    let best_circuit = best_circuit.unwrap_or_else(|| circuit.clone());

    // Leakage-aware Vt assignment on the best implementation: probe each
    // gate's HVT demotion against a slow/typical/fast multi-corner view
    // and keep it only when the design-worst slack — the worst over
    // *all* corners — stays non-negative. Timing is untouched on the
    // primary corner's critical cone by construction (a kept demotion
    // still meets tc everywhere), and the probe/revert cycle rides the
    // same incremental dirty-cone machinery as sizing.
    let mut vt_classes = vec![VtClass::Svt; best_circuit.gate_count()];
    let mut hvt_gates = 0usize;
    if options.vt_assignment {
        let corners = CornerSet::slow_typical_fast(lib.process().clone());
        let mut vt_graph = TimingGraph::with_corners(
            &best_circuit,
            lib,
            &best_sizing,
            &options.extract,
            &corners,
        )?;
        vt_graph.set_constraint(tc_ps);
        // Only a design with headroom at every corner can trade any of
        // it for leakage; a failing design keeps its timing-optimal Vt.
        // Each probe re-times the demoted gate's forward cone and
        // compares the latest output arrival with tc; the required
        // times never re-derive outside the rounding band.
        if vt_graph.meets_constraint() == Some(true) {
            for g in best_circuit.gate_ids() {
                vt_graph.set_vt_class(g, VtClass::Hvt);
                if vt_graph.meets_constraint() == Some(true) {
                    vt_classes[g.index()] = VtClass::Hvt;
                    hvt_gates += 1;
                } else {
                    vt_graph.set_vt_class(g, VtClass::Svt);
                }
            }
        }
    }
    let leakage: f64 = best_circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), vt_classes[g.index()], best_sizing.cin_ff(g)))
        .sum();

    Ok(FlowResult {
        final_delay_ps: best_delay,
        total_cin_ff: best_sizing.total_cin_ff(),
        circuit: best_circuit,
        sizing: best_sizing,
        initial_delay_ps,
        paths_optimized,
        edits_applied,
        buffers_inserted,
        gates_restructured,
        edit_slack_gain_ps,
        rounds,
        stop,
        vt_classes,
        hvt_gates,
        leakage_nw: leakage,
    })
}

/// Build the structural [`EditPlan`] for one round's stalled paths:
/// buffer ops first (a De Morgan rewires its gate's input pins, which
/// would invalidate a later buffer op's recorded pin list), then the
/// De Morgan rewrites, with each path's on-path successor kept on the
/// direct net so the critical chain never detours through a buffer.
fn plan_structural_edits(
    graph: &TimingGraph,
    lib: &Library,
    stalled: &[NetlistPath],
    flimits: &mut FlimitCache,
    budget: usize,
) -> EditPlan {
    let circuit = graph.circuit();
    let cins: Vec<f64> = circuit
        .gate_ids()
        .map(|g| graph.sizing().cin_ff(g))
        .collect();
    let po_load_ff = graph.options().po_load_ff;

    // On-path successor per net, most critical path first.
    let mut on_path_next: HashMap<NetId, GateId> = HashMap::new();
    let mut candidate_gates: Vec<GateId> = Vec::new();
    for path in stalled {
        for (i, &g) in path.gates.iter().enumerate() {
            candidate_gates.push(g);
            if let Some(&next) = path.gates.get(i + 1) {
                on_path_next.entry(circuit.gate(g).output()).or_insert(next);
            }
        }
    }

    // NOR rewrites claim their gates first; buffer candidates are the
    // remaining stalled-path nets (the De Morgan output inverter
    // already provides the buffer's load isolation on rewritten nodes).
    let demorgan =
        plan_demorgan_restructure(circuit, lib, &cins, po_load_ff, &candidate_gates, flimits);
    let rewritten: HashSet<GateId> = demorgan
        .ops()
        .iter()
        .filter_map(|op| match op {
            EditOp::DeMorgan { gate, .. } => Some(*gate),
            _ => None,
        })
        .collect();
    let buffer_nets: Vec<NetId> = candidate_gates
        .iter()
        .filter(|g| !rewritten.contains(g))
        .map(|&g| circuit.gate(g).output())
        .collect();
    // Move a load pin only when it is off the stalled path *and* its
    // endpoint has slack headroom over the buffered net itself — a sink
    // as critical as the net cannot absorb two extra buffer stages.
    let mut plan = plan_buffer_insertions(
        circuit,
        lib,
        &cins,
        po_load_ff,
        &buffer_nets,
        |net, g| {
            if on_path_next.get(&net) == Some(&g) {
                return false;
            }
            graph.worst_slack_ps(circuit.gate(g).output()) > graph.worst_slack_ps(net)
        },
        flimits,
    );
    plan.extend(demorgan);

    // Respect the whole-run edit budget.
    if plan.len() > budget {
        let ops: Vec<EditOp> = plan.ops()[..budget].to_vec();
        return ops.into();
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_netlist::builders::ripple_carry_adder;
    use pops_netlist::suite;
    use pops_sta::analysis::{analyze, analyze_with};

    #[test]
    fn flow_speeds_up_an_adder() {
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(8);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(&adder, &lib, 0.7 * t0, &FlowOptions::default()).unwrap();
        assert!(r.final_delay_ps < t0);
        assert!(r.paths_optimized > 0);
    }

    #[test]
    fn met_constraint_converges_quickly() {
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        // Already met: one analysis round, no sizing changes.
        let r = optimize_circuit(&adder, &lib, 1.5 * t0, &FlowOptions::default()).unwrap();
        assert_eq!(r.paths_optimized, 0);
        assert_eq!((r.stop, r.rounds), (FlowStop::ConstraintMet, 1));
        assert!((r.final_delay_ps - t0).abs() < 1e-9);
    }

    #[test]
    fn flow_runs_on_a_suite_circuit() {
        let lib = Library::cmos025();
        let c = suite::circuit("fpd").unwrap();
        let s0 = Sizing::minimum(&c, &lib);
        let t0 = analyze(&c, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(&c, &lib, 0.85 * t0, &FlowOptions::default()).unwrap();
        assert!(r.final_delay_ps < t0);
        // Area grew relative to all-minimum (speed costs capacitance).
        assert!(r.total_cin_ff > s0.total_cin_ff());
    }

    #[test]
    fn final_sizing_slack_matches_the_reported_delay() {
        use pops_sta::required_times;
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(6);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        for factor in [0.85, 0.95] {
            let tc = factor * t0;
            let r = optimize_circuit(&adder, &lib, tc, &FlowOptions::default()).unwrap();
            // The slack picture under the returned sizing agrees with
            // the reported delay: in a pure-PO circuit the design-worst
            // slack is exactly tc − critical delay, and it is
            // non-negative precisely when the constraint was met.
            let report = analyze(&adder, &lib, &r.sizing).unwrap();
            let slacks = required_times(&adder, &lib, &r.sizing, &report, tc).unwrap();
            let worst = slacks.worst_slack_overall_ps().unwrap();
            assert!(
                (worst - (tc - r.final_delay_ps)).abs() < 1e-9,
                "worst slack {worst} vs tc − delay {}",
                tc - r.final_delay_ps
            );
            assert_eq!(worst >= 0.0, r.final_delay_ps <= tc);
        }
    }

    #[test]
    fn structural_write_back_beats_sizing_only_when_stalled() {
        // c880 at half its minimum-sizing delay: the constraint sits
        // below several paths' sizing-only Tmin, sizing plateaus, and
        // the flow buffers the stalled paths' over-limit nets. The
        // applied edits must (a) be reported, (b) buy measured slack,
        // and (c) end at a strictly better delay than the
        // structure-conserving flow.
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s0 = Sizing::minimum(&c, &lib);
        let t0 = analyze(&c, &lib, &s0).unwrap().critical_delay_ps();
        let tc = 0.5 * t0;
        let with = optimize_circuit(&c, &lib, tc, &FlowOptions::default()).unwrap();
        let without = optimize_circuit(
            &c,
            &lib,
            tc,
            &FlowOptions {
                apply_structure: false,
                ..FlowOptions::default()
            },
        )
        .unwrap();
        assert!(with.edits_applied > 0, "sizing alone must stall here");
        assert_eq!(
            with.edits_applied,
            with.buffers_inserted + with.gates_restructured
        );
        assert!(
            with.edit_slack_gain_ps > 0.0,
            "edits must buy slack, got {}",
            with.edit_slack_gain_ps
        );
        assert!(
            with.final_delay_ps < without.final_delay_ps,
            "write-back {} !< conserve-only {}",
            with.final_delay_ps,
            without.final_delay_ps
        );
        // The input circuit was never mutated; the result's was grown.
        assert_eq!(c.gate_count(), without.circuit.gate_count());
        assert!(with.circuit.gate_count() > c.gate_count());
        assert_eq!(with.sizing.len(), with.circuit.gate_count());
        with.circuit.validate().unwrap();
    }

    #[test]
    fn write_back_result_is_self_consistent() {
        // The returned (circuit, sizing) pair reproduces the reported
        // delay exactly under a fresh analysis, edits and all.
        let lib = Library::cmos025();
        let c = suite::circuit("c880").unwrap();
        let s0 = Sizing::minimum(&c, &lib);
        let t0 = analyze(&c, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(&c, &lib, 0.5 * t0, &FlowOptions::default()).unwrap();
        assert!(r.edits_applied > 0);
        let fresh = analyze(&r.circuit, &lib, &r.sizing).unwrap();
        assert_eq!(
            fresh.critical_delay_ps().to_bits(),
            r.final_delay_ps.to_bits(),
            "reported delay must be reproducible from the returned pair"
        );
        // Logic is preserved through all the edits: the edited netlist
        // computes the same primary outputs as the original.
        let mut rng = pops_netlist::rng::SplitMix64::new(0xF1_0F);
        let names: Vec<String> = c
            .primary_inputs()
            .iter()
            .map(|&n| c.net(n).name().to_string())
            .collect();
        for _ in 0..16 {
            let values: std::collections::HashMap<&str, bool> = names
                .iter()
                .map(|n| (n.as_str(), rng.chance(0.5)))
                .collect();
            assert_eq!(
                c.evaluate(&values).unwrap(),
                r.circuit.evaluate(&values).unwrap(),
                "structural edits changed the logic function"
            );
        }
    }

    #[test]
    fn flow_times_under_its_extract_options() {
        // `extract` sets the latch load of the flow's timing as well as
        // of its extraction: the reported delay is the analysis of the
        // returned pair under those options, bit for bit.
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(6);
        let t0 = analyze(&adder, &lib, &Sizing::minimum(&adder, &lib))
            .unwrap()
            .critical_delay_ps();
        let options = FlowOptions {
            extract: AnalyzeOptions {
                po_load_ff: 40.0,
                ..AnalyzeOptions::default()
            },
            ..FlowOptions::default()
        };
        let r = optimize_circuit(&adder, &lib, 0.8 * t0, &options).unwrap();
        let fresh = analyze_with(&r.circuit, &lib, &r.sizing, &options.extract).unwrap();
        assert_eq!(
            r.final_delay_ps.to_bits(),
            fresh.critical_delay_ps().to_bits(),
            "reported {} ps, fresh analysis {} ps",
            r.final_delay_ps,
            fresh.critical_delay_ps()
        );
    }

    #[test]
    fn disabling_structure_keeps_the_netlist_identical() {
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(
            &adder,
            &lib,
            0.01 * t0, // hopeless, would otherwise trigger surgery
            &FlowOptions {
                apply_structure: false,
                ..FlowOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.edits_applied, 0);
        assert_eq!(r.circuit.gate_count(), adder.gate_count());
        assert_eq!(r.sizing.len(), adder.gate_count());
    }

    #[test]
    fn vt_assignment_trades_slack_for_leakage() {
        // A relaxed constraint leaves most gates slack-rich: the Vt
        // pass must demote a healthy fraction to HVT and the reported
        // leakage must drop below the all-SVT figure — without giving
        // up the constraint at any corner.
        let lib = Library::cmos025();
        let c = suite::circuit("fpd").unwrap();
        let s0 = Sizing::minimum(&c, &lib);
        let t0 = analyze(&c, &lib, &s0).unwrap().critical_delay_ps();
        let tc = 1.5 * t0;
        let base = optimize_circuit(&c, &lib, tc, &FlowOptions::default()).unwrap();
        assert_eq!(base.hvt_gates, 0, "vt assignment is off by default");
        assert!(base.leakage_nw > 0.0);
        assert!(base.vt_classes.iter().all(|&v| v == VtClass::Svt));

        let opts = FlowOptions {
            vt_assignment: true,
            ..FlowOptions::default()
        };
        let r = optimize_circuit(&c, &lib, tc, &opts).unwrap();
        assert!(r.hvt_gates > 0, "relaxed design must absorb demotions");
        assert_eq!(
            r.hvt_gates,
            r.vt_classes.iter().filter(|&&v| v == VtClass::Hvt).count()
        );
        assert!(
            r.leakage_nw < base.leakage_nw,
            "HVT demotion must cut leakage: {} !< {}",
            r.leakage_nw,
            base.leakage_nw
        );
        // The demoted design still meets the constraint at every corner
        // of the slow/typical/fast set.
        let corners = CornerSet::slow_typical_fast(lib.process().clone());
        let mut g = pops_sta::TimingGraph::with_corners(
            &r.circuit,
            &lib,
            &r.sizing,
            &AnalyzeOptions::default(),
            &corners,
        )
        .unwrap();
        for (gate, &class) in r.circuit.gate_ids().zip(&r.vt_classes) {
            g.set_vt_class(gate, class);
        }
        g.set_constraint(tc);
        assert!(matches!(g.worst_slack_overall_ps(), Some(s) if s >= 0.0));
    }

    #[test]
    fn vt_assignment_keeps_a_tight_design_svt() {
        // Right at the typical-corner critical delay the slow corner is
        // failing, so no demotion can keep every corner non-negative —
        // the pass must leave the implementation alone.
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        let opts = FlowOptions {
            vt_assignment: true,
            ..FlowOptions::default()
        };
        let r = optimize_circuit(&adder, &lib, 1.001 * t0, &opts).unwrap();
        assert_eq!(r.hvt_gates, 0, "slow corner leaves no headroom");
        assert!(r.vt_classes.iter().all(|&v| v == VtClass::Svt));
    }

    #[test]
    fn infinite_constraint_is_a_tolerated_noop() {
        // Pre-backward-state behavior: any tc > 0 — including +inf — is
        // accepted, the loop sees nothing to do and reports best effort.
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(&adder, &lib, f64::INFINITY, &FlowOptions::default()).unwrap();
        assert_eq!(r.paths_optimized, 0);
        assert_eq!(r.stop, FlowStop::ConstraintMet);
        assert!((r.final_delay_ps - t0).abs() < 1e-9);
    }

    #[test]
    fn invalid_constraints_are_typed_errors() {
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        for tc in [f64::NAN, 0.0, -1.0] {
            let err = optimize_circuit(&adder, &lib, tc, &FlowOptions::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    FlowError::Optimize(OptimizeError::InvalidConstraint { tc_ps })
                        if tc_ps.to_bits() == tc.to_bits()
                ),
                "tc {tc}: got {err}"
            );
        }
    }

    #[test]
    fn unreachable_constraints_report_best_effort() {
        let lib = Library::cmos025();
        let adder = ripple_carry_adder(4);
        let s0 = Sizing::minimum(&adder, &lib);
        let t0 = analyze(&adder, &lib, &s0).unwrap().critical_delay_ps();
        let r = optimize_circuit(&adder, &lib, 0.01 * t0, &FlowOptions::default()).unwrap();
        // Could not meet it, but improved, and flagged structural needs.
        assert!(r.final_delay_ps > 0.01 * t0);
        assert!(r.final_delay_ps < t0);
        // With no path to size or no round to run, the loop stops at once
        // and the input timing comes back.
        for (options, stop, rounds) in [
            (
                FlowOptions {
                    paths_per_round: 0,
                    ..FlowOptions::default()
                },
                FlowStop::NoPathSized,
                1,
            ),
            (
                FlowOptions {
                    max_rounds: 0,
                    ..FlowOptions::default()
                },
                FlowStop::RoundLimit,
                0,
            ),
        ] {
            let r = optimize_circuit(&adder, &lib, 0.01 * t0, &options).unwrap();
            assert_eq!((r.stop, r.rounds, r.paths_optimized), (stop, rounds, 0));
            assert!((r.final_delay_ps - t0).abs() < 1e-9);
        }
    }
}
