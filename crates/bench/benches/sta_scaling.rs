//! Million-gate scaling characterization on the synthetic fabrics
//! (`synth10k` / `synth100k` / `synth1m`): three row families, one
//! committed artifact (`BENCH_sta_scaling.json`).
//!
//! * `full_sweep` — forward full-sweep throughput: each round resizes
//!   every gate, so the seed count alone passes the flush's ¾-gate
//!   budget and the delay read pays the seed materialization (every
//!   fanin load re-summed) plus one rank-major forward sweep.
//! * `backward_sweep` — same shape for the backward direction: each
//!   round toggles the timing constraint, so the worst-slack read pays
//!   exactly one gate-centric `sweep_required_full` (what every stale
//!   backward read costs) plus the fold over the slabs.
//! * `lazy` — the merged-flush-vs-per-mutation workload of
//!   `sta_forward`, K resizes per delay read, on the fabrics. The
//!   speedup is a ratio of two strategies on the same machine in the
//!   same process, so these rows ARE gated (the `synth10k` rows are
//!   mandatory — CI reproduces them; larger classes are `optional`).
//!   Each round cross-checks the two sides bit-for-bit; a divergence
//!   aborts the bench.
//!
//! Environment knob (CI runs the small class only):
//! `STA_SCALING_CLASSES` — comma list of class names (default
//! `synth10k,synth100k`; `synth1m` opts in the full run).

use std::time::Instant;

use pops_bench::json::ToJson;
use pops_bench::microbench::format_ns;
use pops_bench::{mean, median, write_baseline};
use pops_delay::Library;
use pops_netlist::{suite, GateId};
use pops_sta::{Sizing, TimingGraph};

struct SweepRow {
    kind: &'static str,
    circuit: String,
    gates: usize,
    rounds: usize,
    sweep_median_ns: f64,
    sweep_mean_ns: f64,
    gates_per_sec: f64,
    optional: bool,
}
pops_bench::json_fields!(SweepRow {
    kind,
    circuit,
    gates,
    rounds,
    sweep_median_ns,
    sweep_mean_ns,
    gates_per_sec,
    optional
});

struct LazyRow {
    kind: &'static str,
    circuit: String,
    gates: usize,
    k: usize,
    rounds: usize,
    eager_median_ns: f64,
    eager_mean_ns: f64,
    merged_median_ns: f64,
    merged_mean_ns: f64,
    speedup_median: f64,
    speedup_mean: f64,
    optional: bool,
}
pops_bench::json_fields!(LazyRow {
    kind,
    circuit,
    gates,
    k,
    rounds,
    eager_median_ns,
    eager_mean_ns,
    merged_median_ns,
    merged_mean_ns,
    speedup_median,
    speedup_mean,
    optional
});

enum Row {
    Sweep(SweepRow),
    Lazy(LazyRow),
}
impl ToJson for Row {
    fn write_json(&self, out: &mut String) {
        match self {
            Row::Sweep(r) => r.write_json(out),
            Row::Lazy(r) => r.write_json(out),
        }
    }
}

fn env_list(name: &str, default: &str) -> Vec<String> {
    std::env::var(name)
        .unwrap_or_else(|_| default.to_string())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// `count` distinct gates spread evenly across the id range, so a
/// probe set of any size touches every region of the fabric instead of
/// one corner of it.
fn spaced_gates(gates: &[GateId], count: usize) -> Vec<GateId> {
    let count = count.clamp(1, gates.len());
    let step = gates.len() as f64 / count as f64;
    (0..count)
        .map(|i| gates[(i as f64 * step) as usize])
        .collect()
}

/// One sweep-throughput row from its per-round timings (optional: the
/// rows are informational, never gated).
fn sweep_row(kind: &'static str, class: &str, n: usize, ns: &[f64]) -> Row {
    let med = median(ns.to_vec());
    println!(
        "  {kind:<14}  median {:>10}  {:>12.0} gates/s",
        format_ns(med),
        n as f64 / (med * 1e-9),
    );
    Row::Sweep(SweepRow {
        kind,
        circuit: class.to_string(),
        gates: n,
        rounds: ns.len(),
        sweep_median_ns: med,
        sweep_mean_ns: mean(ns),
        gates_per_sec: n as f64 / (med * 1e-9),
        optional: true,
    })
}

fn main() {
    let lib = Library::cmos025();
    let classes = env_list("STA_SCALING_CLASSES", "synth10k,synth100k");
    let mut rows: Vec<Row> = Vec::new();

    for class in &classes {
        let circuit = suite::scaling_circuit(class)
            .unwrap_or_else(|| panic!("unknown scaling class {class:?}"));
        let n = circuit.gate_count();
        let sizing = Sizing::minimum(&circuit, &lib);
        let gates: Vec<GateId> = circuit.gate_ids().collect();
        let mandatory = class == "synth10k";
        println!("== {class} ({n} gates) ==");

        // ---- forward full-sweep throughput ----
        {
            let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
            let base: Vec<f64> = gates.iter().map(|&g| graph.sizing().cin_ff(g)).collect();
            let rounds = ((1usize << 21) / n).clamp(4, 64) & !1;
            let mut ns = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let scale = if r % 2 == 0 { 1.2 } else { 1.0 };
                // Every gate resized: the seed count alone sends the
                // flush to the full sweep.
                graph.resize_gates(gates.iter().zip(&base).map(|(&g, &b)| (g, b * scale)));
                let t0 = Instant::now();
                std::hint::black_box(graph.critical_delay_ps());
                ns.push(t0.elapsed().as_nanos() as f64);
            }
            rows.push(sweep_row("full_sweep", class, n, &ns));
        }

        // ---- backward full-sweep throughput ----
        {
            let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
            // Settle the forward side once up front; each timed round
            // then toggles the constraint, so the worst-slack read pays
            // exactly one gate-centric backward sweep plus the fold over
            // the slabs, and nothing on the forward side.
            let d0 = graph.critical_delay_ps();
            let tc = [d0 * 1.05, d0 * 1.10];
            let rounds = ((1usize << 21) / n).clamp(4, 64) & !1;
            let mut ns = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = Instant::now();
                graph.set_constraint(tc[r % 2]);
                std::hint::black_box(graph.worst_slack_overall_ps().expect("finite constraint"));
                ns.push(t0.elapsed().as_nanos() as f64);
            }
            rows.push(sweep_row("backward_sweep", class, n, &ns));
        }

        // ---- lazy merged flush vs per-mutation reads (the gated rows) ----
        for k in [8usize, 64] {
            let k = k.min(gates.len());
            let rounds = (gates.len() / k).clamp(1, 24);
            let probes = spaced_gates(&gates, k * rounds);
            let mut merged = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
            let mut eager = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
            let base: Vec<f64> = probes.iter().map(|&g| merged.sizing().cin_ff(g)).collect();

            // Warm-up: two flushes on each side so the first timed round
            // is not paying the log/bitset allocations.
            for graph in [&mut merged, &mut eager] {
                for _ in 0..2 {
                    graph.resize_gate(probes[0], base[0] * 1.1);
                    let _ = graph.critical_delay_ps();
                    graph.resize_gate(probes[0], base[0]);
                    let _ = graph.critical_delay_ps();
                }
            }

            let mut merged_ns = Vec::with_capacity(rounds);
            let mut eager_ns = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let chunk: Vec<(GateId, f64)> = (r * k..(r + 1) * k)
                    .map(|i| (probes[i], base[i] * 1.2))
                    .collect();

                let t0 = Instant::now();
                for &(g, cin) in &chunk {
                    merged.resize_gate(g, cin);
                }
                let d_merged = std::hint::black_box(merged.critical_delay_ps());
                merged_ns.push(t0.elapsed().as_nanos() as f64);

                let t0 = Instant::now();
                let mut d_eager = 0.0;
                for &(g, cin) in &chunk {
                    eager.resize_gate(g, cin);
                    d_eager = std::hint::black_box(eager.critical_delay_ps());
                }
                eager_ns.push(t0.elapsed().as_nanos() as f64);

                assert_eq!(
                    d_merged.to_bits(),
                    d_eager.to_bits(),
                    "{class} K={k}: merged flush diverged from per-mutation reads"
                );
            }

            let (m_med, m_mean) = (median(merged_ns.clone()), mean(&merged_ns));
            let (e_med, e_mean) = (median(eager_ns.clone()), mean(&eager_ns));
            let row = LazyRow {
                kind: "lazy",
                circuit: class.clone(),
                gates: n,
                k,
                rounds,
                eager_median_ns: e_med,
                eager_mean_ns: e_mean,
                merged_median_ns: m_med,
                merged_mean_ns: m_mean,
                speedup_median: e_med / m_med,
                speedup_mean: e_mean / m_mean,
                optional: !mandatory,
            };
            println!(
                "  lazy        K={k:<3}  per-mut {:>10}  merged {:>10}  speedup {:.1}x / {:.1}x",
                format_ns(e_med),
                format_ns(m_med),
                row.speedup_median,
                row.speedup_mean,
            );
            rows.push(Row::Lazy(row));
        }
    }

    write_baseline("sta_scaling", &rows);
}
