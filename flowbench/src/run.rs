//! The untraced and the traced run of one workload, and the report both
//! print.
//!
//! Both runs share one driver, [`drive`]. Set-up generates and analyzes
//! every netlist of the workload. One untimed warm-up pass then runs the
//! flow on every netlist, checks each result and keeps it as the
//! netlist's reference; the quality ratios come from these results.
//! Timed passes follow, round-robin over the timed netlists (the first
//! `TIMED_VARIANTS` of each circuit), until the run's seconds are up.
//! Every timed flow is checked again and must reproduce its reference
//! bit for bit. The traced run differs only in its [`Hooks`]: it replays
//! each flow after the flow and folds each pass's spans into per-layer
//! times.
//!
//! `setup_s` is the lower quartile over [`FIRST_SETUPS`] set-ups before
//! the warm-up and one more per [`SETUP_EVERY_S`] of the timed window, run
//! between passes. The host this was tuned on runs everything up to 2.3×
//! slower for seconds to minutes at a time. Set-ups spread over the run
//! see every state it went through, where a block of set-ups before the
//! warm-up sees whatever state the run starts in; the lower quartile, of
//! set-ups as of flows, reads full speed unless three quarters of the run
//! were slow, where a median flips whenever half were (see `README.md`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use pops::flow::{optimize_circuit, FlowOptions};
use pops::prelude::Library;

use crate::check::{check_result, Quality};
use crate::replay::{replay_flow, retime_core, CoreCall, CoreTiming, LayerCounts};
use crate::stats::{geomean, median, quartiles};
use crate::trace::{self_times_ns, Tracer};
use crate::workload::{set_up, Prepared, Workload};

/// Set-ups before the warm-up pass.
const FIRST_SETUPS: usize = 5;
/// During the timed passes, one more set-up is due per this much time
/// (s); due set-ups run between passes.
const SETUP_EVERY_S: f64 = 0.5;
/// Failure messages printed before the rest are only counted.
const MAX_NOTES: usize = 5;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run: flows attempted and failed, the metrics, and
/// the human-readable rows printed before the result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Flows run.
    pub attempted: usize,
    /// Flows that returned an error, failed the output check or differed
    /// from their netlist's reference result.
    pub failed: usize,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Table rows.
    pub lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn fail(&mut self, label: &str, why: &str) {
        if self.failed < MAX_NOTES {
            eprintln!("flowbench: {label}: {why}");
        }
        self.failed += 1;
    }

    /// Count one flow: it fails on an error or when its quality differs
    /// from `reference`.
    fn record(
        &mut self,
        label: &str,
        quality: &Result<Quality, String>,
        reference: Option<&Quality>,
    ) {
        self.attempted += 1;
        match (quality, reference) {
            (Err(e), _) => self.fail(label, e),
            (Ok(q), Some(r)) if q != r => {
                self.fail(label, "quality outputs changed between repetitions")
            }
            _ => {}
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which JSON cannot carry; every
    /// metric is finite by construction.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Run `optimize_circuit` once, timing only that call, then check the
/// result.
fn timed_flow(
    p: &Prepared,
    lib: &Library,
    opts: &FlowOptions,
    vt_assignment: bool,
) -> (f64, Result<Quality, String>) {
    let start = Instant::now();
    let result = optimize_circuit(&p.circuit, lib, p.tc_ps, opts);
    let seconds = start.elapsed().as_secs_f64();
    let quality = result.map_err(|e| e.to_string()).and_then(|r| {
        check_result(p, lib, vt_assignment, &r)?;
        Ok(Quality::of(&r))
    });
    (seconds, quality)
}

/// What a run does besides timing the flow. The untraced run uses `()`,
/// which does nothing.
trait Hooks {
    /// After the warm-up flow of `p`, whose checked result is `flow`.
    fn warm_up(&mut self, _p: &Prepared, _flow: Option<&Quality>, _report: &mut Report) {}
    /// After the timed flow of netlist `i`, `p`.
    fn timed(
        &mut self,
        _i: usize,
        _p: &Prepared,
        _reference: Option<&Quality>,
        _report: &mut Report,
    ) {
    }
    /// After every timed pass.
    fn end_pass(&mut self) {}
}

impl Hooks for () {}

/// What the shared driver measured.
struct Run {
    /// Every netlist of the last set-up.
    prepared: Vec<Prepared>,
    /// Each netlist's checked warm-up result; `None` where it failed.
    reference: Vec<Option<Quality>>,
    /// Indices of the netlists whose flows are timed.
    timed: Vec<usize>,
    /// Per netlist, the wall time of each timed flow (s).
    samples: Vec<Vec<f64>>,
    /// Every set-up's wall times.
    setups: SetupTimes,
    /// Flows attempted and failed so far.
    report: Report,
}

/// Wall times of every set-up a run made (s).
#[derive(Debug, Default)]
struct SetupTimes {
    /// Generation plus minimum-size analysis.
    totals: Vec<f64>,
    /// Generation alone.
    generates: Vec<f64>,
}

impl SetupTimes {
    /// Set the workload up until `count` set-ups have been made; returns
    /// the last one's netlists, if it made any.
    fn up_to(
        &mut self,
        count: usize,
        w: &Workload,
        seed: u64,
        lib: &Library,
    ) -> Result<Option<Vec<Prepared>>, String> {
        let mut prepared = None;
        while self.totals.len() < count {
            let s = set_up(w, seed, lib)?;
            self.totals.push(s.total_s);
            self.generates.push(s.generate_s);
            prepared = Some(s.prepared);
        }
        Ok(prepared)
    }
}

/// Set up, warm up and run timed passes for `seconds` (see the module
/// docs), calling `hooks` after each flow and pass.
///
/// # Errors
///
/// A set-up failure, or no netlist producing a result at all.
fn drive(
    w: &Workload,
    seed: u64,
    seconds: f64,
    lib: &Library,
    hooks: &mut impl Hooks,
) -> Result<Run, String> {
    let mut setups = SetupTimes::default();
    let prepared = setups
        .up_to(FIRST_SETUPS, w, seed, lib)?
        .expect("the first set-ups make netlists");

    let opts = w.flow_options();
    let mut report = Report::default();
    let mut reference = Vec::with_capacity(prepared.len());
    for p in &prepared {
        let (_, quality) = timed_flow(p, lib, &opts, w.vt_assignment);
        report.record(&p.label, &quality, None);
        hooks.warm_up(p, quality.as_ref().ok(), &mut report);
        reference.push(quality.ok());
    }
    if reference.iter().all(Option::is_none) {
        return Err("no flow produced a result".into());
    }

    let timed: Vec<usize> = (0..prepared.len())
        .filter(|&i| prepared[i].timed())
        .collect();
    let mut samples = vec![Vec::new(); prepared.len()];
    let start = Instant::now();
    loop {
        let due = FIRST_SETUPS + (start.elapsed().as_secs_f64() / SETUP_EVERY_S) as usize;
        setups.up_to(due, w, seed, lib)?;
        for &i in &timed {
            let p = &prepared[i];
            let (t, quality) = timed_flow(p, lib, &opts, w.vt_assignment);
            samples[i].push(t);
            report.record(&p.label, &quality, reference[i].as_ref());
            hooks.timed(i, p, reference[i].as_ref(), &mut report);
        }
        hooks.end_pass();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Run {
        prepared,
        reference,
        timed,
        samples,
        setups,
        report,
    })
}

/// Each circuit's netlist indices, in workload order.
fn by_circuit(prepared: &[Prepared]) -> Vec<(&'static str, Vec<usize>)> {
    let mut groups: Vec<(&'static str, Vec<usize>)> = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        match groups.last_mut() {
            Some((name, ids)) if *name == p.profile => ids.push(i),
            _ => groups.push((p.profile, vec![i])),
        }
    }
    groups
}

/// A quality ratio of one netlist's result.
type Ratio = fn(&Quality, &Prepared) -> f64;

/// The three quality ratios, in metric order: delay/tc, area, leakage.
const RATIOS: [Ratio; 3] = [
    |q, p| q.delay_ps() / p.tc_ps,
    |q, p| q.cin_ff() / p.min_cin_ff,
    |q, p| q.leakage_nw() / p.min_leakage_nw,
];

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// The end-to-end run (see the module docs).
///
/// # Errors
///
/// A set-up failure, or no netlist producing a result at all.
pub fn untraced(w: &Workload, seed: u64, seconds: f64, lib: &Library) -> Result<Report, String> {
    let Run {
        prepared,
        reference,
        timed,
        samples,
        setups,
        mut report,
    } = drive(w, seed, seconds, lib, &mut ())?;

    // A timed netlist's time is the lower quartile of its timed flows,
    // the speed of the flow whenever the host ran at full speed for a
    // quarter of the run (see `README.md`); a circuit's time is the median
    // over its timed netlists. Its quality ratio is the geomean over its
    // netlists with a result (failures are counted in `report`).
    let mut flow_s = 0.0;
    let mut circuit_ratios: [Vec<f64>; 3] = Default::default();
    report.lines.push(format!(
        "{:<10} {:>4} {:>5} {:>10} {:>8} {:>8} {:>8}",
        "circuit", "nets", "timed", "time_ms", "delay/tc", "area", "leakage"
    ));
    for (name, ids) in by_circuit(&prepared) {
        let lower_quartiles: Vec<f64> = ids
            .iter()
            .filter(|&&i| !samples[i].is_empty())
            .map(|&i| quartiles(&samples[i])[0])
            .collect();
        let time = median(&lower_quartiles);
        flow_s += time;
        let mut row = format!(
            "{name:<10} {:>4} {:>5} {:>10.3}",
            ids.len(),
            lower_quartiles.len(),
            ms(time)
        );
        for (ratio, values) in RATIOS.iter().zip(&mut circuit_ratios) {
            let of_netlists: Vec<f64> = ids
                .iter()
                .filter_map(|&i| Some(ratio(reference[i].as_ref()?, &prepared[i])))
                .collect();
            if of_netlists.is_empty() {
                row.push_str(&format!(" {:>8}", "failed"));
            } else {
                values.push(geomean(&of_netlists));
                row.push_str(&format!(" {:>8.4}", values[values.len() - 1]));
            }
        }
        report.lines.push(row);
    }
    let [delay_over_tc, area_ratio, leakage_ratio] = circuit_ratios.map(|v| geomean(&v));
    let setup_s = quartiles(&setups.totals)[0];

    report.lines.push(format!(
        "{:<10} {:>4} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6} {:>5} {:>5} {:>6}",
        "netlist",
        "n",
        "q1_ms",
        "median_ms",
        "q3_ms",
        "delay/tc",
        "area",
        "leakage",
        "rounds",
        "paths",
        "edits",
        "hvt"
    ));
    for ((p, s), q) in prepared.iter().zip(&samples).zip(&reference) {
        let times = if s.is_empty() {
            format!("{:>10} {:>10} {:>10}", "-", "-", "-")
        } else {
            let [q1, mid, q3] = quartiles(s);
            format!("{:>10.3} {:>10.3} {:>10.3}", ms(q1), ms(mid), ms(q3))
        };
        let quality = match q {
            Some(q) => format!(
                "{:>8.4} {:>8.4} {:>8.4} {:>6} {:>5} {:>5} {:>6}",
                RATIOS[0](q, p),
                RATIOS[1](q, p),
                RATIOS[2](q, p),
                q.rounds,
                q.paths,
                q.edits,
                q.hvt_gates
            ),
            None => "failed".to_string(),
        };
        report
            .lines
            .push(format!("{:<10} {:>4} {times} {quality}", p.label, s.len()));
    }
    report.lines.push(format!(
        "workload {} seed {seed}: flow_s {flow_s:.4} s over {} timed netlists x {} passes; \
         quality over {} netlists; setup_s {setup_s:.5} s (lower quartile of {}); failed {} of {}",
        w.name,
        timed.len(),
        samples[timed[0]].len(),
        prepared.len(),
        setups.totals.len(),
        report.failed,
        report.attempted
    ));

    report.metric("flow_s", "s", flow_s);
    report.metric("setup_s", "s", setup_s);
    report.metric("delay_over_tc", "ratio", delay_over_tc);
    report.metric("area_ratio", "ratio", area_ratio);
    report.metric("leakage_ratio", "ratio", leakage_ratio);
    report.metric("peak_rss_mb", "MB", peak_rss_mb()?);
    Ok(report)
}

/// Per-pass time of each layer: self time summed over its spans (s).
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    build: f64,
    query: f64,
    mutate: f64,
    kpaths: f64,
    extract: f64,
    optimize: f64,
    resolve: f64,
    plan: f64,
    flow_self: f64,
    /// Whole Vt passes, children included.
    vt_pass: f64,
    queries: usize,
    mutations: usize,
    /// `protocol::optimize`'s two halves, re-timed after the pass.
    core: CoreTiming,
}

impl LayerTimes {
    fn of(tracer: &Tracer) -> Self {
        let mut t = LayerTimes::default();
        for (s, self_ns) in tracer.spans().iter().zip(self_times_ns(tracer.spans())) {
            let own = self_ns as f64 * 1e-9;
            match s.name {
                "sta.build" => t.build += own,
                "sta.query" => {
                    t.query += own;
                    t.queries += 1;
                }
                "sta.mutate" => {
                    t.mutate += own;
                    t.mutations += 1;
                }
                "sta.kpaths" => t.kpaths += own,
                "sta.extract" => t.extract += own,
                "core.optimize" => t.optimize += own,
                "core.resolve" => t.resolve += own,
                "core.plan" => t.plan += own,
                "flow" | "flow.round" => t.flow_self += own,
                "flow.vt_pass" => {
                    t.flow_self += own;
                    t.vt_pass += s.duration_ns() as f64 * 1e-9;
                }
                other => unreachable!("the replay opened an unknown span {other}"),
            }
        }
        t
    }
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run's hooks: each flow is followed by its replay, which
/// must reproduce the flow's quality outputs (a mismatch is counted, not
/// failed). Warm-up replays record the inputs of the timed netlists'
/// `protocol::optimize` calls; their spans are dropped. Each timed pass
/// gets a fresh tracer, folded into per-layer times when the pass ends,
/// and `protocol::optimize`'s two halves are re-timed on the recorded
/// inputs then, so they see the same machine as the pass they split.
struct Replayer<'a> {
    lib: &'a Library,
    opts: FlowOptions,
    core_calls: Vec<CoreCall>,
    mismatches: usize,
    /// Per netlist, the wall time of each timed replay (s).
    samples: Vec<Vec<f64>>,
    /// The current pass's spans and counts.
    tracer: Tracer,
    counts: LayerCounts,
    /// Every finished pass's per-layer times.
    per_pass: Vec<LayerTimes>,
    /// The last finished pass's spans and counts.
    last_tracer: Tracer,
    last_counts: LayerCounts,
}

impl Replayer<'_> {
    fn compare(&mut self, label: &str, flow: Option<&Quality>, replay: &Quality) {
        if flow != Some(replay) {
            if self.mismatches < MAX_NOTES {
                eprintln!("flowbench: {label}: replay {replay:?} differs from flow {flow:?}");
            }
            self.mismatches += 1;
        }
    }
}

impl Hooks for Replayer<'_> {
    fn warm_up(&mut self, p: &Prepared, flow: Option<&Quality>, report: &mut Report) {
        let calls = p.timed().then_some(&mut self.core_calls);
        let mut tracer = Tracer::new();
        match replay_flow(
            &p.circuit,
            self.lib,
            p.tc_ps,
            &self.opts,
            &mut tracer,
            calls,
        ) {
            Ok(r) => self.compare(&p.label, flow, &r.quality),
            Err(e) => report.fail(&p.label, &format!("replay failed: {e}")),
        }
    }

    fn timed(&mut self, i: usize, p: &Prepared, reference: Option<&Quality>, report: &mut Report) {
        let root = self.tracer.spans().len();
        match replay_flow(
            &p.circuit,
            self.lib,
            p.tc_ps,
            &self.opts,
            &mut self.tracer,
            None,
        ) {
            Ok(r) => {
                let seconds = self.tracer.spans()[root].duration_ns() as f64 * 1e-9;
                self.samples[i].push(seconds);
                self.counts.add(&r.counts);
                self.compare(&p.label, reference, &r.quality);
            }
            Err(e) => report.fail(&p.label, &format!("replay failed: {e}")),
        }
    }

    fn end_pass(&mut self) {
        let mut times = LayerTimes::of(&self.tracer);
        times.core = retime_core(self.lib, &self.core_calls, &self.opts.protocol.sensitivity);
        self.per_pass.push(times);
        self.last_tracer = std::mem::take(&mut self.tracer);
        self.last_counts = std::mem::take(&mut self.counts);
    }
}

/// The traced run: the shared driver with a [`Replayer`]. Per-layer
/// times are medians over passes of each pass's summed self times;
/// counts are the last pass's, since a replay is deterministic. The last
/// pass's spans are written to `spans_path`.
///
/// # Errors
///
/// A set-up failure, or no netlist producing a result at all.
pub fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    lib: &Library,
    spans_path: &Path,
) -> Result<Report, String> {
    let mut replayer = Replayer {
        lib,
        opts: w.flow_options(),
        core_calls: Vec::new(),
        mismatches: 0,
        samples: vec![Vec::new(); w.netlists().count()],
        tracer: Tracer::new(),
        counts: LayerCounts::default(),
        per_pass: Vec::new(),
        last_tracer: Tracer::new(),
        last_counts: LayerCounts::default(),
    };
    let Run {
        prepared,
        timed,
        samples,
        setups,
        mut report,
        ..
    } = drive(w, seed, seconds, lib, &mut replayer)?;
    let Replayer {
        mismatches,
        samples: replay_samples,
        per_pass,
        last_tracer: tracer,
        last_counts: counts,
        ..
    } = replayer;

    let pass_median =
        |f: fn(&LayerTimes) -> f64| median(&per_pass.iter().map(f).collect::<Vec<_>>());
    let last = *per_pass.last().expect("the driver runs at least one pass");
    let mut flow_s = 0.0;
    let mut replay_s = 0.0;
    report.lines.push(format!(
        "{:<10} {:>3} {:>12} {:>12} {:>9}",
        "netlist", "n", "flow_ms", "replay_ms", "overhead"
    ));
    for &i in &timed {
        let f = median(&samples[i]);
        flow_s += f;
        let r = if replay_samples[i].is_empty() {
            f64::NAN
        } else {
            median(&replay_samples[i])
        };
        if r.is_finite() {
            replay_s += r;
        }
        report.lines.push(format!(
            "{:<10} {:>3} {:>12.3} {:>12.3} {:>+9.4}",
            prepared[i].label,
            samples[i].len(),
            ms(f),
            ms(r),
            r / f - 1.0
        ));
    }

    report.metric("netlist.build_s", "s", quartiles(&setups.generates)[0]);
    report.metric("sta.build_s", "s", pass_median(|t| t.build));
    report.metric("sta.builds", "count", counts.builds as f64);
    report.metric("sta.query_s", "s", pass_median(|t| t.query));
    report.metric("sta.queries", "count", last.queries as f64);
    report.metric(
        "sta.forward_flushes",
        "count",
        counts.forward_flushes as f64,
    );
    report.metric(
        "sta.backward_flushes",
        "count",
        counts.backward_flushes as f64,
    );
    report.metric(
        "sta.gates_reevaluated",
        "count",
        counts.gates_reevaluated as f64,
    );
    report.metric(
        "sta.required_reevaluated",
        "count",
        counts.required_reevaluated as f64,
    );
    report.metric(
        "sta.completion_reevaluated",
        "count",
        counts.completion_reevaluated as f64,
    );
    report.metric(
        "sta.evals_per_flush",
        "count",
        share(counts.gates_reevaluated, counts.forward_flushes),
    );
    report.metric(
        "sta.cut_ratio",
        "ratio",
        share(counts.converged_early, counts.gates_reevaluated),
    );
    report.metric("sta.mutate_s", "s", pass_median(|t| t.mutate));
    report.metric("sta.edits", "count", last.mutations as f64);
    report.metric(
        "sta.pool_eligible",
        "ratio",
        share(counts.pool_eligible, counts.builds),
    );
    report.metric("sta.kpaths_s", "s", pass_median(|t| t.kpaths));
    report.metric("sta.paths_found", "count", counts.paths_found as f64);
    report.metric("sta.extract_s", "s", pass_median(|t| t.extract));
    report.metric("core.optimize_s", "s", pass_median(|t| t.optimize));
    report.metric("core.optimize_calls", "count", counts.optimize_calls as f64);
    report.metric(
        "core.infeasible_ratio",
        "ratio",
        share(counts.infeasible, counts.optimize_calls),
    );
    report.metric(
        "core.path_stages",
        "count",
        share(counts.path_stages, counts.optimize_calls),
    );
    report.metric("core.tmin_s", "s", pass_median(|t| t.core.tmin_s));
    report.metric("core.tmin_sweeps", "count", last.core.tmin_sweeps as f64);
    report.metric("core.resolve_s", "s", pass_median(|t| t.resolve));
    report.metric(
        "core.distribute_s",
        "s",
        pass_median(|t| t.core.distribute_s),
    );
    report.metric("core.bisections", "count", last.core.bisections as f64);
    report.metric("core.plan_s", "s", pass_median(|t| t.plan));
    report.metric("core.edit_ops", "count", counts.edit_ops as f64);
    report.metric("flow.self_s", "s", pass_median(|t| t.flow_self));
    report.metric("flow.rounds", "count", counts.rounds as f64);
    report.metric(
        "flow.paths_optimized",
        "count",
        counts.paths_optimized as f64,
    );
    report.metric("flow.vt_pass_s", "s", pass_median(|t| t.vt_pass));
    report.metric("flow.vt_probes", "count", counts.vt_probes as f64);
    report.metric(
        "flow.vt_kept_ratio",
        "ratio",
        share(counts.vt_kept, counts.vt_probes),
    );
    report.metric("trace.overhead", "ratio", replay_s / flow_s - 1.0);
    report.metric("trace.mismatches", "count", mismatches as f64);
    report.metric("fail_frac", "ratio", share(report.failed, report.attempted));

    report.lines.push(format!(
        "workload {} seed {seed}: {} timed netlists x {} traced passes; replay checked on {} \
         netlists; {} spans in the last pass",
        w.name,
        timed.len(),
        per_pass.len(),
        prepared.len(),
        tracer.spans().len()
    ));
    for m in &report.metrics {
        report
            .lines
            .push(format!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit));
    }
    if let Err(e) = write_spans(&tracer, spans_path) {
        eprintln!(
            "flowbench: warning: cannot write {}: {e}",
            spans_path.display()
        );
    }
    Ok(report)
}

fn write_spans(tracer: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_json(&mut file)?;
    std::io::Write::flush(&mut file)
}
