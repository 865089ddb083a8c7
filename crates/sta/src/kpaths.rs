//! K most critical paths (ref. \[11\] of the paper: Yen, Du, Ghanta, DAC'89).
//!
//! POPS deliberately optimizes a *limited set of paths* instead of the
//! whole circuit. This module enumerates the K longest gate paths of the
//! timing DAG in decreasing delay order.
//!
//! Gate delays are frozen at their worst-case value under the analyzed
//! slopes (the exact path delay depends on the slope history along the
//! path, which would make exact enumeration exponential; the frozen-weight
//! ranking is the standard block-based approximation and is re-timed
//! exactly when the path is handed to the optimizer).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pops_netlist::{Circuit, GateId, NetDriver};

use crate::analysis::{EdgeDir, NetlistPath, TimingView};

/// A partial or complete path in the search heap, ordered by its
/// optimistic bound (current weight + best possible completion).
struct HeapEntry {
    bound: f64,
    gates: Vec<GateId>,
    complete: bool,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Enumerate the `k` most critical (longest) gate paths.
///
/// Paths run from a gate fed by a primary input to a gate driving a
/// primary output. Returned in non-increasing weight order; fewer than `k`
/// paths are returned if the circuit has fewer distinct paths.
///
/// The weight of a path is the sum of [`TimingView::gate_delay_worst_ps`]
/// over its gates. Accepts any timing backend — a one-shot
/// [`crate::TimingReport`] or an incremental [`crate::TimingGraph`].
///
/// # Example
///
/// ```
/// use pops_netlist::builders::ripple_carry_adder;
/// use pops_delay::Library;
/// use pops_sta::{analysis::analyze, k_most_critical_paths, Sizing};
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let c = ripple_carry_adder(4);
/// let lib = Library::cmos025();
/// let sizing = Sizing::minimum(&c, &lib);
/// let report = analyze(&c, &lib, &sizing)?;
/// let paths = k_most_critical_paths(&c, &report, 5);
/// assert!(paths.len() <= 5);
/// assert!(!paths.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn k_most_critical_paths<V: TimingView + ?Sized>(
    circuit: &Circuit,
    report: &V,
    k: usize,
) -> Vec<NetlistPath> {
    if k == 0 || circuit.gate_count() == 0 {
        return Vec::new();
    }
    let w = |g: GateId| report.gate_delay_worst_ps(g);

    // Best completion weight from each gate to any primary output. A
    // backend that maintains the bounds incrementally (a `TimingGraph`
    // with a constraint set) runs its two-phase lazy flush here —
    // forward first (the frozen gate delays the bounds fold over),
    // then the completion side only, never the required times — and
    // hands over its cached array, bit-identical to the from-scratch
    // derivation, making per-round path extraction O(cone) instead of
    // O(circuit). This call is therefore a flushing query: pending
    // mutations settle before the first bound is read.
    let completion: Vec<f64> = report
        .cached_completion_ps()
        .unwrap_or_else(|| completion_bounds(circuit, report));

    // Source gates: fed by at least one primary input.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for gid in circuit.gate_ids() {
        let from_pi = circuit
            .gate(gid)
            .inputs()
            .iter()
            .any(|&n| matches!(circuit.net(n).driver(), Some(NetDriver::PrimaryInput)));
        if from_pi && completion[gid.index()].is_finite() {
            heap.push(HeapEntry {
                bound: completion[gid.index()],
                gates: vec![gid],
                complete: false,
            });
        }
    }

    let mut results = Vec::with_capacity(k);
    // Guard against pathological blowup: the heap never needs to expand
    // more than k * max_path_len * max_fanout entries to yield k paths.
    let mut expansions = 0usize;
    let expansion_limit = (k + 1) * circuit.gate_count().max(64) * 8;

    while let Some(entry) = heap.pop() {
        if entry.complete {
            results.push(NetlistPath {
                gates: entry.gates,
                end_edge: EdgeDir::Rising,
            });
            if results.len() == k {
                break;
            }
            continue;
        }
        expansions += 1;
        if expansions > expansion_limit {
            break;
        }
        let last = *entry.gates.last().expect("entries are non-empty");
        let weight_so_far: f64 = entry.gates.iter().map(|&g| w(g)).sum();
        let out = circuit.gate(last).output();
        if circuit.net(out).is_output() {
            heap.push(HeapEntry {
                bound: weight_so_far,
                gates: entry.gates.clone(),
                complete: true,
            });
        }
        for &(succ, _) in circuit.net(out).loads() {
            if completion[succ.index()].is_finite() {
                let mut gates = entry.gates.clone();
                gates.push(succ);
                heap.push(HeapEntry {
                    bound: weight_so_far + completion[succ.index()],
                    gates,
                    complete: false,
                });
            }
        }
    }
    results
}

/// Best completion weight from each gate to any primary output, over
/// the reverse topological order: `completion[g] = w(g) + max over
/// successors` (0 at a primary output, `-inf` off every PI→PO path).
///
/// This is the backward analogue of the forward arrival state with the
/// gate weights frozen at [`TimingView::gate_delay_worst_ps`]; it is
/// both the admissible bound driving the K-paths search heap and the
/// array [`crate::TimingGraph`] maintains incrementally (the
/// differential suites compare the two bit-for-bit).
pub fn completion_bounds<V: TimingView + ?Sized>(circuit: &Circuit, report: &V) -> Vec<f64> {
    let order = circuit
        .topo_order()
        .expect("timing report implies an acyclic circuit");
    let mut completion = vec![f64::NEG_INFINITY; circuit.gate_count()];
    for &gid in order.iter().rev() {
        let out = circuit.gate(gid).output();
        let mut best = if circuit.net(out).is_output() {
            0.0
        } else {
            f64::NEG_INFINITY
        };
        for &(succ, _) in circuit.net(out).loads() {
            if completion[succ.index()].is_finite() {
                best = best.max(completion[succ.index()]);
            }
        }
        completion[gid.index()] = if best.is_finite() {
            report.gate_delay_worst_ps(gid) + best
        } else {
            f64::NEG_INFINITY
        };
    }
    completion
}

/// Total frozen weight of a path under a report (useful for assertions
/// and ranking displays).
pub fn path_weight_ps<V: TimingView + ?Sized>(report: &V, path: &NetlistPath) -> f64 {
    path.gates
        .iter()
        .map(|&g| report.gate_delay_worst_ps(g))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, TimingReport};
    use crate::sizing::Sizing;
    use pops_delay::Library;
    use pops_netlist::builders::{inverter_chain, ripple_carry_adder};
    use pops_netlist::suite;

    fn paths_of(c: &Circuit, k: usize) -> (Vec<NetlistPath>, TimingReport) {
        let lib = Library::cmos025();
        let s = Sizing::minimum(c, &lib);
        let r = analyze(c, &lib, &s).unwrap();
        (k_most_critical_paths(c, &r, k), r)
    }

    #[test]
    fn chain_has_exactly_one_path() {
        let c = inverter_chain(5);
        let (paths, _) = paths_of(&c, 10);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].gates.len(), 5);
    }

    #[test]
    fn weights_are_non_increasing() {
        let c = ripple_carry_adder(4);
        let (paths, r) = paths_of(&c, 20);
        assert!(paths.len() > 1);
        let weights: Vec<f64> = paths.iter().map(|p| path_weight_ps(&r, p)).collect();
        for pair in weights.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9, "{pair:?}");
        }
    }

    #[test]
    fn top_path_matches_exhaustive_enumeration_on_small_circuit() {
        let c = ripple_carry_adder(2);
        let (paths, r) = paths_of(&c, 1);
        // Exhaustive DFS over all PI->PO gate paths.
        fn dfs(c: &Circuit, r: &TimingReport, g: GateId, weight: f64, best: &mut f64) {
            let weight = weight + r.gate_delay_worst_ps(g);
            let out = c.gate(g).output();
            if c.net(out).is_output() {
                *best = best.max(weight);
            }
            for &(succ, _) in c.net(out).loads() {
                dfs(c, r, succ, weight, best);
            }
        }
        let mut best = 0.0;
        for g in c.gate_ids() {
            let from_pi = c
                .gate(g)
                .inputs()
                .iter()
                .any(|&n| matches!(c.net(n).driver(), Some(NetDriver::PrimaryInput)));
            if from_pi {
                dfs(&c, &r, g, 0.0, &mut best);
            }
        }
        assert!((path_weight_ps(&r, &paths[0]) - best).abs() < 1e-9);
    }

    #[test]
    fn k_zero_returns_nothing() {
        let c = inverter_chain(3);
        let (paths, _) = paths_of(&c, 0);
        assert!(paths.is_empty());
    }

    #[test]
    fn paths_are_structurally_valid() {
        let c = suite::circuit("fpd").unwrap();
        let (paths, _) = paths_of(&c, 8);
        for p in &paths {
            for w in p.gates.windows(2) {
                let out = c.gate(w[0]).output();
                let feeds = c.net(out).loads().iter().any(|&(g, _)| g == w[1]);
                assert!(feeds, "consecutive gates must be connected");
            }
        }
    }

    #[test]
    fn paths_are_distinct() {
        let c = ripple_carry_adder(3);
        let (paths, _) = paths_of(&c, 15);
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert_ne!(paths[i].gates, paths[j].gates);
            }
        }
    }

    #[test]
    fn top_path_agrees_with_sta_critical_path_weight() {
        // The STA critical path maximizes slope-aware arrival, the kpaths
        // ranking maximizes frozen weights; on an inverter chain they are
        // the same path.
        let c = inverter_chain(7);
        let lib = Library::cmos025();
        let s = Sizing::minimum(&c, &lib);
        let r = analyze(&c, &lib, &s).unwrap();
        let k = k_most_critical_paths(&c, &r, 1);
        assert_eq!(k[0].gates, r.critical_path().gates);
    }
}
