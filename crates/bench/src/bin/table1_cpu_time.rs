//! Table 1 — CPU time to satisfy a path delay constraint: POPS'
//! deterministic distribution vs the AMPS-style iterative sizer.
//!
//! The paper reports a two-orders-of-magnitude speedup. Wall-clock
//! milliseconds on today's hardware are far smaller than 2005's, so the
//! column to compare is the *ratio*. Both sizers are timed by one rule
//! (`time_ms`), so the ratio compares like with like.

use std::time::Instant;

use pops_amps::{greedy_size_for_constraint, GreedyOptions};
use pops_bench::paper_ref::TABLE1_CPU_TIME;
use pops_bench::{median, paper_workloads, print_table, write_artifact};
use pops_core::bounds::delay_bounds;
use pops_core::sensitivity::distribute_constraint;
use pops_delay::Library;

struct Row {
    circuit: String,
    gates: usize,
    pops_ms: f64,
    amps_ms: f64,
    speedup: f64,
    paper_speedup: Option<f64>,
}
pops_bench::json_fields!(Row {
    circuit,
    gates,
    pops_ms,
    amps_ms,
    speedup,
    paper_speedup
});

/// Calls every timing makes at least: the median of three discards one
/// slow outlier (a cold cache, a preempted call).
const MIN_REPS: usize = 3;
/// Calls every timing makes at most.
const MAX_REPS: usize = 100;
/// Wall time (ms) after which a timing stops once it has `MIN_REPS`
/// calls: the slowest AMPS rows (c6288, adder16) stop at three, and
/// the whole table runs in a few seconds.
const BUDGET_MS: f64 = 50.0;

/// Median wall time of one call of `f` (ms): at least `MIN_REPS`
/// calls, then more until `BUDGET_MS` is spent or `MAX_REPS` are made.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS
        || (samples.len() < MAX_REPS && start.elapsed().as_secs_f64() * 1e3 < BUDGET_MS)
    {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(samples)
}

fn main() {
    let lib = Library::cmos025();
    println!("Table 1 — CPU time for constraint distribution (Tc = 1.2 * Tmin)\n");

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for w in paper_workloads(&lib) {
        let b = delay_bounds(&lib, &w.path);
        let tc = 1.2 * b.tmin_ps;
        let pops_ms = time_ms(|| distribute_constraint(&lib, &w.path, tc));
        let amps_ms =
            time_ms(|| greedy_size_for_constraint(&lib, &w.path, tc, &GreedyOptions::default()));
        let speedup = amps_ms / pops_ms;
        let paper = TABLE1_CPU_TIME
            .iter()
            .find(|r| r.0 == w.name)
            .map(|r| r.3 / r.2);
        table.push(vec![
            w.name.to_string(),
            w.gate_count.to_string(),
            format!("{pops_ms:.2}"),
            format!("{amps_ms:.2}"),
            format!("{speedup:.0}x"),
            paper
                .map(|s| format!("{s:.0}x"))
                .unwrap_or_else(|| "-".into()),
        ]);
        rows.push(Row {
            circuit: w.name.to_string(),
            gates: w.gate_count,
            pops_ms,
            amps_ms,
            speedup,
            paper_speedup: paper,
        });
    }
    print_table(
        &[
            "circuit",
            "gates",
            "POPS (ms)",
            "AMPS (ms)",
            "speedup",
            "paper speedup",
        ],
        &table,
    );
    println!(
        "\nShape check (paper): \"a two order of magnitude speed up of the \
         constraint distribution step\"."
    );
    write_artifact("table1_cpu_time", &rows);
}
