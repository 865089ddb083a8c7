//! A traced replay of `optimize_circuit`.
//!
//! [`replay_flow`] makes the same public calls, with the same arguments
//! and in the same order, that `pops::flow::optimize_circuit` makes into
//! the timing engine (`pops_sta`) and the protocol (`pops_core`), and
//! wraps each in a [`Tracer`] span. The flow's own code between those
//! calls (snapshots, growth caps, bookkeeping) is the flow layer's self
//! time. Its result must equal the flow's bit for bit; [`Quality`]
//! compares the two.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use pops::core::bounds::{delay_bounds, tmax, tmin};
use pops::core::buffer::{plan_buffer_insertions, FlimitCache};
use pops::core::protocol::{optimize, ProtocolOptions};
use pops::core::restructure::plan_demorgan_restructure;
use pops::core::sensitivity::{distribute_constraint_with, SensitivityOptions};
use pops::core::OptimizeError;
use pops::delay::power::leakage_nw;
use pops::delay::{CornerSet, TimedPath};
use pops::flow::{FlowError, FlowOptions};
use pops::netlist::{Circuit, EditOp, EditPlan, GateId, NetId, VtClass};
use pops::prelude::{extract_timed_path, k_most_critical_paths, Library, Sizing, TimingGraph};
use pops::sta::analysis::{AnalyzeOptions, EdgeDir, NetlistPath};
use pops::sta::incremental::UpdateStats;

use crate::check::Quality;
use crate::trace::Tracer;

/// The flow's per-round growth cap (`ROUND_GROWTH_CAP` in `src/flow.rs`).
const ROUND_GROWTH_CAP: f64 = 3.0;

/// Work counts of one replayed flow, per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Timing graphs built (`new` or `with_corners`).
    pub builds: usize,
    /// Of those, graphs whose flushes may use the worker pool: at least
    /// two threads and at least `parallel_threshold()` gates.
    pub pool_eligible: usize,
    /// `UpdateStats` deltas from the end of each graph's build span to
    /// its last use, summed over the flow's graphs.
    pub forward_flushes: usize,
    /// See `forward_flushes`.
    pub backward_flushes: usize,
    /// See `forward_flushes`.
    pub gates_reevaluated: usize,
    /// See `forward_flushes`.
    pub converged_early: usize,
    /// See `forward_flushes`.
    pub required_reevaluated: usize,
    /// See `forward_flushes`.
    pub completion_reevaluated: usize,
    /// Paths `k_most_critical_paths` returned.
    pub paths_found: usize,
    /// `protocol::optimize` calls.
    pub optimize_calls: usize,
    /// Of those, calls that returned `Infeasible`.
    pub infeasible: usize,
    /// Stages over every optimized path.
    pub path_stages: usize,
    /// Ops in the structural edit plans that were applied.
    pub edit_ops: usize,
    /// Flow rounds.
    pub rounds: usize,
    /// Paths the flow resized.
    pub paths_optimized: usize,
    /// HVT demotions probed.
    pub vt_probes: usize,
    /// Probes kept.
    pub vt_kept: usize,
}

impl LayerCounts {
    fn note_build(&mut self, graph: &TimingGraph) {
        self.builds += 1;
        if graph.threads() >= 2 && graph.circuit().gate_count() >= graph.parallel_threshold() {
            self.pool_eligible += 1;
        }
    }

    fn add_stats(&mut self, now: UpdateStats, base: UpdateStats) {
        self.forward_flushes += now.forward_flushes - base.forward_flushes;
        self.backward_flushes += now.backward_flushes - base.backward_flushes;
        self.gates_reevaluated += now.gates_reevaluated - base.gates_reevaluated;
        self.converged_early += now.converged_early - base.converged_early;
        self.required_reevaluated += now.required_reevaluated - base.required_reevaluated;
        self.completion_reevaluated += now.completion_reevaluated - base.completion_reevaluated;
    }

    /// Add another flow's counts.
    pub fn add(&mut self, o: &LayerCounts) {
        self.builds += o.builds;
        self.pool_eligible += o.pool_eligible;
        self.forward_flushes += o.forward_flushes;
        self.backward_flushes += o.backward_flushes;
        self.gates_reevaluated += o.gates_reevaluated;
        self.converged_early += o.converged_early;
        self.required_reevaluated += o.required_reevaluated;
        self.completion_reevaluated += o.completion_reevaluated;
        self.paths_found += o.paths_found;
        self.optimize_calls += o.optimize_calls;
        self.infeasible += o.infeasible;
        self.path_stages += o.path_stages;
        self.edit_ops += o.edit_ops;
        self.rounds += o.rounds;
        self.paths_optimized += o.paths_optimized;
        self.vt_probes += o.vt_probes;
        self.vt_kept += o.vt_kept;
    }
}

/// The inputs of one `protocol::optimize` call, kept to re-time its two
/// public halves outside the flow.
#[derive(Debug, Clone)]
pub struct CoreCall {
    /// The extracted path.
    pub path: TimedPath,
    /// The budget the flow passed.
    pub tc_ps: f64,
}

/// What a replay returns besides its spans.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The outputs that must equal `optimize_circuit`'s.
    pub quality: Quality,
    /// Work counts per layer.
    pub counts: LayerCounts,
}

/// Replay `optimize_circuit(circuit, lib, tc_ps, options)` under spans
/// of `tracer`, all tagged with a fresh flow id under one `flow` root.
/// When `core_calls` is given, the inputs of every `protocol::optimize`
/// call are appended to it.
///
/// # Errors
///
/// The errors `optimize_circuit` would return.
pub fn replay_flow(
    circuit: &Circuit,
    lib: &Library,
    tc_ps: f64,
    options: &FlowOptions,
    tracer: &mut Tracer,
    core_calls: Option<&mut Vec<CoreCall>>,
) -> Result<Replay, FlowError> {
    tracer.next_flow();
    tracer.begin("flow");
    let out = replay_inner(circuit, lib, tc_ps, options, tracer, core_calls);
    // Closes the root, and whatever an early error left open.
    tracer.close_all();
    out
}

fn replay_inner(
    circuit: &Circuit,
    lib: &Library,
    tc_ps: f64,
    options: &FlowOptions,
    tracer: &mut Tracer,
    mut core_calls: Option<&mut Vec<CoreCall>>,
) -> Result<Replay, FlowError> {
    let mut counts = LayerCounts::default();
    let build = tracer.begin("sta.build");
    let mut graph = TimingGraph::new(circuit, lib, &Sizing::minimum(circuit, lib))?;
    graph.set_constraint(tc_ps);
    tracer.end(build);
    counts.note_build(&graph);
    let base = graph.stats();
    let initial_delay_ps = tracer.span("sta.query", || graph.critical_delay_ps());

    let conserve = ProtocolOptions {
        allow_buffers: false,
        allow_restructuring: false,
        ..options.protocol.clone()
    };
    let mut paths_optimized = 0;
    let mut edits_applied = 0;
    let mut rounds = 0;
    let mut best_sizing = graph.sizing().clone();
    let mut best_circuit = circuit.clone();
    let mut best_delay = initial_delay_ps;
    let mut best_edits = 0;
    let mut flimits = FlimitCache::new();

    for _ in 0..options.max_rounds {
        let round = tracer.begin("flow.round");
        rounds += 1;
        let worst = tracer.span("sta.query", || graph.worst_slack_overall_ps());
        if !matches!(worst, Some(s) if s < 0.0) {
            tracer.end(round);
            break;
        }
        let round_entry_delay = tracer.span("sta.query", || graph.critical_delay_ps());
        let round_start = graph.sizing().clone();
        let paths = tracer.span("sta.kpaths", || {
            k_most_critical_paths(graph.circuit(), &graph, options.paths_per_round)
        });
        counts.paths_found += paths.len();
        let mut any_change = false;
        let mut stalled: Vec<NetlistPath> = Vec::new();
        for path in &paths {
            let Some(&last) = path.gates.last() else {
                continue;
            };
            let endpoint = graph.circuit().gate(last).output();
            if tracer.span("sta.query", || graph.worst_slack_ps(endpoint)) >= 0.0 {
                continue;
            }
            let rise = tracer.span("sta.query", || graph.required_ps(endpoint, EdgeDir::Rising));
            let fall = tracer.span("sta.query", || {
                graph.required_ps(endpoint, EdgeDir::Falling)
            });
            let required = rise.min(fall);
            let budget = if required.is_finite() && required > 0.0 {
                required
            } else {
                tc_ps
            };
            let extracted = tracer.span("sta.extract", || {
                extract_timed_path(graph.circuit(), lib, graph.sizing(), path, &options.extract)
            });
            counts.optimize_calls += 1;
            counts.path_stages += extracted.timed.len();
            if let Some(calls) = core_calls.as_deref_mut() {
                calls.push(CoreCall {
                    path: extracted.timed.clone(),
                    tc_ps: budget,
                });
            }
            let outcome = tracer.span("core.optimize", || {
                optimize(lib, &extracted.timed, budget, &conserve)
            });
            let mut sizes = match outcome {
                Ok(outcome) => outcome.sizes,
                Err(OptimizeError::Infeasible { .. }) => {
                    counts.infeasible += 1;
                    stalled.push(path.clone());
                    tracer
                        .span("core.resolve", || delay_bounds(lib, &extracted.timed))
                        .tmin_sizes
                }
                Err(e) => return Err(e.into()),
            };
            for (s, &g) in sizes.iter_mut().zip(&extracted.gates) {
                let cap = round_start.cin_ff(g) * ROUND_GROWTH_CAP;
                *s = s.min(cap).max(lib.min_drive_ff());
            }
            sizes[0] = extracted.timed.source_drive_ff();
            let changes: Vec<(GateId, f64)> = extracted
                .gates
                .iter()
                .copied()
                .zip(sizes.iter().copied())
                .collect();
            tracer.span("sta.mutate", || graph.resize_gates(changes));
            paths_optimized += 1;
            any_change = true;
        }

        let sizing_plateaued =
            tracer.span("sta.query", || graph.critical_delay_ps()) >= round_entry_delay - 1e-9;
        if options.apply_structure
            && sizing_plateaued
            && !stalled.is_empty()
            && edits_applied < options.max_edits
            && matches!(tracer.span("sta.query", || graph.worst_slack_overall_ps()), Some(s) if s < 0.0)
        {
            let budget = options.max_edits - edits_applied;
            let plan_span = tracer.begin("core.plan");
            let plan =
                plan_structural_edits(&graph, lib, &stalled[..1], &mut flimits, budget, tracer);
            tracer.end(plan_span);
            if !plan.is_empty() {
                counts.edit_ops += plan.len();
                tracer.span("sta.query", || graph.worst_slack_overall_ps());
                let applied = tracer.span("sta.mutate", || graph.apply_edits(&plan))?;
                edits_applied += applied.len();
                tracer.span("sta.query", || graph.worst_slack_overall_ps());
                any_change = true;
            }
        }

        if tracer.span("sta.query", || graph.critical_delay_ps()) < best_delay {
            best_delay = tracer.span("sta.query", || graph.critical_delay_ps());
            best_sizing = graph.sizing().clone();
            best_circuit = graph.circuit().clone();
            best_edits = edits_applied;
        }
        tracer.end(round);
        if !any_change {
            break;
        }
    }

    let mut vt_classes = vec![VtClass::Svt; best_circuit.gate_count()];
    let mut hvt_gates = 0;
    if options.vt_assignment {
        let vt_pass = tracer.begin("flow.vt_pass");
        let corners = CornerSet::slow_typical_fast(lib.process().clone());
        let build = tracer.begin("sta.build");
        let mut vt_graph = TimingGraph::with_corners(
            &best_circuit,
            lib,
            &best_sizing,
            &AnalyzeOptions::default(),
            &corners,
        )?;
        vt_graph.set_constraint(tc_ps);
        tracer.end(build);
        counts.note_build(&vt_graph);
        let vt_base = vt_graph.stats();
        let headroom = tracer.span("sta.query", || vt_graph.worst_slack_overall_ps());
        if matches!(headroom, Some(s) if s >= 0.0) {
            for g in best_circuit.gate_ids() {
                tracer.span("sta.mutate", || vt_graph.set_vt_class(g, VtClass::Hvt));
                counts.vt_probes += 1;
                let worst = tracer.span("sta.query", || vt_graph.worst_slack_overall_ps());
                if matches!(worst, Some(s) if s >= 0.0) {
                    vt_classes[g.index()] = VtClass::Hvt;
                    hvt_gates += 1;
                } else {
                    tracer.span("sta.mutate", || vt_graph.set_vt_class(g, VtClass::Svt));
                }
            }
        }
        counts.add_stats(vt_graph.stats(), vt_base);
        tracer.end(vt_pass);
    }
    let leakage: f64 = best_circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), vt_classes[g.index()], best_sizing.cin_ff(g)))
        .sum();
    counts.add_stats(graph.stats(), base);
    counts.rounds = rounds;
    counts.paths_optimized = paths_optimized;
    counts.vt_kept = hvt_gates;

    Ok(Replay {
        quality: Quality {
            delay_bits: best_delay.to_bits(),
            cin_bits: best_sizing.total_cin_ff().to_bits(),
            leakage_bits: leakage.to_bits(),
            hvt_gates,
            rounds,
            paths: paths_optimized,
            edits: best_edits,
        },
        counts,
    })
}

/// The flow's structural planner (`plan_structural_edits` in
/// `src/flow.rs`), with the slack reads of its pin filter traced.
fn plan_structural_edits(
    graph: &TimingGraph,
    lib: &Library,
    stalled: &[NetlistPath],
    flimits: &mut FlimitCache,
    budget: usize,
    tracer: &mut Tracer,
) -> EditPlan {
    let circuit = graph.circuit();
    let cins: Vec<f64> = circuit
        .gate_ids()
        .map(|g| graph.sizing().cin_ff(g))
        .collect();
    let po_load_ff = graph.options().po_load_ff;

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
            let sink = tracer.span("sta.query", || {
                graph.worst_slack_ps(circuit.gate(g).output())
            });
            sink > tracer.span("sta.query", || graph.worst_slack_ps(net))
        },
        flimits,
    );
    plan.extend(demorgan);

    if plan.len() > budget {
        let ops: Vec<EditOp> = plan.ops()[..budget].to_vec();
        return ops.into();
    }
    plan
}

/// The two public halves of `protocol::optimize`, re-timed on recorded
/// inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreTiming {
    /// Wall time of `delay_bounds` (its `tmin` and `tmax` parts) (s).
    pub tmin_s: f64,
    /// Link-equation sweeps over every Tmin solve.
    pub tmin_sweeps: usize,
    /// Wall time of `distribute_constraint_with`, called where the
    /// protocol calls it: when the budget is at least Tmin (s).
    pub distribute_s: f64,
    /// Bisection steps over every distribution.
    pub bisections: usize,
}

/// Re-time `delay_bounds` and `distribute_constraint_with` on every
/// recorded `protocol::optimize` input, the way the structure-conserving
/// protocol calls them.
pub fn retime_core(lib: &Library, calls: &[CoreCall], options: &SensitivityOptions) -> CoreTiming {
    let mut out = CoreTiming::default();
    for call in calls {
        let start = Instant::now();
        let t = tmin(lib, &call.path);
        black_box(tmax(lib, &call.path));
        out.tmin_s += start.elapsed().as_secs_f64();
        out.tmin_sweeps += t.iterations;
        if call.tc_ps >= t.delay_ps {
            let start = Instant::now();
            let solution = distribute_constraint_with(lib, &call.path, call.tc_ps, options);
            out.distribute_s += start.elapsed().as_secs_f64();
            if let Ok(s) = solution {
                out.bisections += s.bisections;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{set_up, Workload};
    use pops::flow::optimize_circuit;

    /// Replay fpd under a workload's settings and compare it with
    /// `optimize_circuit` the way the traced run does.
    fn replay_of_fpd(workload: &str) -> (Replay, Vec<CoreCall>, Tracer, usize) {
        let w = Workload::by_name(workload).unwrap();
        let lib = Library::cmos025();
        let p = set_up(w, 0, &lib).unwrap().prepared.swap_remove(0);
        assert_eq!(p.label, "fpd");
        let opts = w.flow_options();
        let flow = optimize_circuit(&p.circuit, &lib, p.tc_ps, &opts).unwrap();
        let mut tracer = Tracer::new();
        let mut calls = Vec::new();
        let replay = replay_flow(
            &p.circuit,
            &lib,
            p.tc_ps,
            &opts,
            &mut tracer,
            Some(&mut calls),
        )
        .unwrap();
        assert_eq!(
            replay.quality,
            Quality::of(&flow),
            "replay differs from the flow"
        );
        (replay, calls, tracer, p.circuit.gate_count())
    }

    fn assert_one_nested_flow(tracer: &Tracer) {
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "flow");
        assert_eq!(spans[0].parent, None);
        for s in &spans[1..] {
            assert_eq!(s.flow, spans[0].flow);
            let parent = &spans[s.parent.expect("every call sits under the flow root")];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn replay_equals_flow_on_fpd_under_suite_tight() {
        let (replay, calls, tracer, _) = replay_of_fpd("suite_tight");
        let c = replay.counts;
        assert!(c.rounds > 1 && c.optimize_calls > 0 && c.infeasible > 0);
        assert_eq!(calls.len(), c.optimize_calls);
        assert_eq!(c.vt_probes, 0);
        assert_one_nested_flow(&tracer);
        let count = |name| tracer.spans().iter().filter(|s| s.name == name).count();
        assert_eq!(count("core.optimize"), c.optimize_calls);
        assert_eq!(count("core.resolve"), c.infeasible);
        assert_eq!(count("flow.round"), c.rounds);
        let timing = retime_core(&Library::cmos025(), &calls, &SensitivityOptions::default());
        assert!(timing.tmin_sweeps >= calls.len() && timing.tmin_s > 0.0);
    }

    #[test]
    fn replay_equals_flow_on_fpd_under_suite_vt() {
        let (replay, calls, tracer, gates) = replay_of_fpd("suite_vt");
        let c = replay.counts;
        assert_eq!((c.rounds, c.optimize_calls, c.paths_found), (1, 0, 0));
        assert!(calls.is_empty());
        assert_eq!(c.vt_probes, gates);
        assert_eq!(c.vt_kept, replay.quality.hvt_gates);
        assert_eq!(c.builds, 2, "the primary graph and the corner graph");
        assert_one_nested_flow(&tracer);
    }
}
