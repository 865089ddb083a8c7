//! Diagnostic: the flow's Vt pass probe loop on the six suite circuits,
//! decided two ways.
//!
//! The loop is `optimize_circuit`'s leakage pass at 1.4·T0, where the
//! sizing rounds stop at once and leave the minimum sizing: a
//! slow/typical/fast graph, every gate demoted to HVT in id order and
//! kept when the design still meets tc at every corner, reverted
//! otherwise. Each probe is decided by `meets_constraint` (the flow's
//! rule, which reads the forward state) and, on a second graph, by the
//! sign of `worst_slack_overall_ps` (the rule before it, which pays one
//! full three-corner backward sweep per probe). The two keep the same
//! gates; the rows give each rule's engine work and the best of five
//! wall-clock runs of the loop alone:
//!
//! ```sh
//! cargo run --release -p pops-bench --example vt_probe_loop
//! ```

use std::time::Instant;

use pops_delay::{CornerSet, Library};
use pops_netlist::{suite, Circuit, VtClass};
use pops_sta::analysis::AnalyzeOptions;
use pops_sta::incremental::UpdateStats;
use pops_sta::{Sizing, TimingGraph};

/// Repetitions per circuit and rule; the fastest is reported.
const RUNS: usize = 5;

/// A probe's decision: keep the demotion?
type Rule = fn(&TimingGraph) -> bool;

/// One probe loop: the gates kept, the work it did and its best time.
struct Loop {
    kept: Vec<bool>,
    work: UpdateStats,
    best_ms: f64,
}

fn probe_loop(c: &Circuit, lib: &Library, decide: Rule) -> Loop {
    let sizing = Sizing::minimum(c, lib);
    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..RUNS {
        let mut g =
            TimingGraph::with_corners(c, lib, &sizing, &AnalyzeOptions::default(), &corners)
                .expect("suite circuits are acyclic");
        let tc = 1.4 * g.critical_delay_ps();
        g.set_constraint(tc);
        assert!(decide(&g), "1.4·T0 leaves headroom at every corner");
        let before = g.stats();
        let t = Instant::now();
        let mut kept = vec![false; c.gate_count()];
        for gate in c.gate_ids() {
            g.set_vt_class(gate, VtClass::Hvt);
            if decide(&g) {
                kept[gate.index()] = true;
            } else {
                g.set_vt_class(gate, VtClass::Svt);
            }
        }
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let after = g.stats();
        last = Some((
            kept,
            UpdateStats {
                gates_reevaluated: after.gates_reevaluated - before.gates_reevaluated,
                required_reevaluated: after.required_reevaluated - before.required_reevaluated,
                forward_flushes: after.forward_flushes - before.forward_flushes,
                backward_flushes: after.backward_flushes - before.backward_flushes,
                ..UpdateStats::default()
            },
        ));
    }
    let (kept, work) = last.expect("RUNS > 0");
    Loop {
        kept,
        work,
        best_ms,
    }
}

fn main() {
    let lib = Library::cmos025();
    let rules: [(&str, Rule); 2] = [
        ("meets_constraint", |g| g.meets_constraint() == Some(true)),
        (
            "worst_slack",
            |g| matches!(g.worst_slack_overall_ps(), Some(s) if s >= 0.0),
        ),
    ];
    let mut totals = [0.0f64; 2];
    for name in ["fpd", "c432", "c880", "c1908", "c6288", "c7552"] {
        let c = suite::circuit(name).expect("suite circuit");
        let loops: Vec<Loop> = rules
            .iter()
            .map(|&(_, decide)| probe_loop(&c, &lib, decide))
            .collect();
        assert_eq!(loops[0].kept, loops[1].kept, "{name}: the rules disagree");
        let kept = loops[0].kept.iter().filter(|&&k| k).count();
        for (i, ((rule, _), l)) in rules.iter().zip(&loops).enumerate() {
            totals[i] += l.best_ms;
            println!(
                "{name:>6} {rule:<16} probes={} kept={kept} fwd_evals={} req_evals={} \
                 fwd_flushes={} bwd_flushes={} ms={:.2}",
                c.gate_count(),
                l.work.gates_reevaluated,
                l.work.required_reevaluated,
                l.work.forward_flushes,
                l.work.backward_flushes,
                l.best_ms
            );
        }
    }
    for ((rule, _), total) in rules.iter().zip(totals) {
        println!("total {rule:<16} ms={total:.1}");
    }
}
