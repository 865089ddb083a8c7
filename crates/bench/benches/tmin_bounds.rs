//! Bench the `Tmin` solvers.
//!
//! * `tmin/<n>` — the exact Newton `tmin` as the path length grows
//!   (synthetic paths, printed and archived with the other micro-benches).
//! * One row per suite critical path (fpd, c432, c1908, c6288, c7552):
//!   `tmin` (Newton) against `tmin_with` at its defaults (the paper's
//!   200-sweep iteration behind Fig. 1). Rounds alternate which solver runs
//!   first; each round times a batch of calls per solver. `speedup_median`
//!   is the median over round pairs of sweep time over Newton time,
//!   `speedup_mean` the ratio of the mean times. The iteration counts of
//!   both are recorded but not gated.
//!
//! The rows are recorded in `BENCH_tmin_bounds.json` at the repository
//! root, where the bench gate compares the speedups against the committed
//! baseline.

use std::hint::black_box;
use std::time::Instant;

use pops_bench::microbench::{format_ns, Runner};
use pops_bench::{mean, median, workload, write_baseline};
use pops_core::bounds::{tmin, tmin_with, TminOptions};
use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::CellKind;

fn path_of(n: usize, lib: &Library) -> TimedPath {
    use CellKind::*;
    let cycle = [Inv, Nand2, Nor2, Inv, Nand3, Nor3];
    let stages: Vec<PathStage> = (0..n)
        .map(|i| PathStage::with_load(cycle[i % cycle.len()], (i % 3) as f64 * 4.0))
        .collect();
    TimedPath::new(stages, lib.min_drive_ff(), 120.0)
}

struct TminRow {
    kind: &'static str,
    circuit: &'static str,
    stages: usize,
    rounds: usize,
    batch: usize,
    newton_ns: f64,
    sweep_ns: f64,
    newton_iterations: usize,
    sweep_iterations: usize,
    speedup_median: f64,
    speedup_mean: f64,
}
pops_bench::json_fields!(TminRow {
    kind,
    circuit,
    stages,
    rounds,
    batch,
    newton_ns,
    sweep_ns,
    newton_iterations,
    sweep_iterations,
    speedup_median,
    speedup_mean
});

/// Rounds per row: each times one batch per solver.
const ROUNDS: usize = 64;
/// Target wall time of one Newton batch.
const BATCH_TARGET_NS: f64 = 200_000.0;

/// Nanoseconds per call over one batch of `batch` calls.
fn time_batch<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / batch as f64
}

fn main() {
    let lib = Library::cmos025();
    let mut runner = Runner::new("tmin_bounds");
    for n in [8usize, 16, 32, 64, 128] {
        let path = path_of(n, &lib);
        runner.bench(&format!("tmin/{n}"), || tmin(&lib, &path));
    }
    runner.finish();

    let defaults = TminOptions::default();
    let mut rows = Vec::new();
    for name in ["fpd", "c432", "c1908", "c6288", "c7552"] {
        let path = workload(&lib, name).path;
        let newton = || tmin(&lib, &path);
        let sweep = || tmin_with(&lib, &path, &defaults);
        let (newton_iterations, sweep_iterations) = (newton().iterations, sweep().iterations);
        // Warm up, then size the batch from one Newton call.
        time_batch(16, newton);
        time_batch(4, sweep);
        let batch = (BATCH_TARGET_NS / time_batch(1, newton)).ceil().max(1.0) as usize;

        let mut newton_ns = Vec::with_capacity(ROUNDS);
        let mut sweep_ns = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            if round % 2 == 0 {
                newton_ns.push(time_batch(batch, newton));
                sweep_ns.push(time_batch(batch, sweep));
            } else {
                sweep_ns.push(time_batch(batch, sweep));
                newton_ns.push(time_batch(batch, newton));
            }
        }
        let pair_ratios: Vec<f64> = sweep_ns
            .chunks_exact(2)
            .zip(newton_ns.chunks_exact(2))
            .map(|(s, n)| (s[0] + s[1]) / (n[0] + n[1]))
            .collect();
        rows.push(TminRow {
            kind: "tmin",
            circuit: name,
            stages: path.len(),
            rounds: ROUNDS,
            batch,
            newton_ns: median(newton_ns.clone()),
            sweep_ns: median(sweep_ns.clone()),
            newton_iterations,
            sweep_iterations,
            speedup_median: median(pair_ratios),
            speedup_mean: mean(&sweep_ns) / mean(&newton_ns),
        });
    }

    println!();
    println!(
        "circuit  stages  Newton (iters)        sweeps (iters)         speedup (median / mean)"
    );
    for r in &rows {
        println!(
            "{:<8} {:>6}  {:>10} ({:>3})  {:>12} ({:>3})  {:>7.2}x / {:.2}x",
            r.circuit,
            r.stages,
            format_ns(r.newton_ns),
            r.newton_iterations,
            format_ns(r.sweep_ns),
            r.sweep_iterations,
            r.speedup_median,
            r.speedup_mean,
        );
    }

    write_baseline("tmin_bounds", &rows);
}
