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
//! exactly when the path is handed to the optimizer). The weights are
//! read once per call: a [`crate::TimingReport`] stores them, and a
//! [`crate::TimingGraph`] derives each one from its settled state with
//! one scan of the gate's arcs, so a call on a graph pays one arc scan
//! per gate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pops_netlist::{Circuit, GateId, NetDriver};

use crate::analysis::{NetlistPath, TimingView};

/// A partial or complete path in the search heap, ordered by its
/// optimistic bound (current weight + best possible completion) alone,
/// so ties pop in the heap's own order whatever the entries carry.
struct HeapEntry {
    bound: f64,
    /// The path's last gate in the search's arena of path prefixes.
    node: usize,
    /// Sum of the gate weights along the path, accumulated first gate
    /// first.
    weight: f64,
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

/// Path prefixes shared as parent pointers: node `i` is the prefix
/// ending at `gate[i]` and continuing `parent[i]`'s (`None` at a first
/// gate). An expansion adds one node per successor instead of copying
/// its prefix.
#[derive(Default)]
struct Prefixes {
    gate: Vec<GateId>,
    parent: Vec<Option<usize>>,
}

impl Prefixes {
    fn push(&mut self, gate: GateId, parent: Option<usize>) -> usize {
        self.gate.push(gate);
        self.parent.push(parent);
        self.gate.len() - 1
    }

    /// The gates of the prefix ending at `node`, first gate first.
    fn path(&self, node: usize) -> Vec<GateId> {
        let mut gates = Vec::new();
        let mut next = Some(node);
        while let Some(node) = next {
            gates.push(self.gate[node]);
            next = self.parent[node];
        }
        gates.reverse();
        gates
    }
}

/// Enumerate the `k` most critical (longest) gate paths.
///
/// Paths run from a gate fed by a primary input to a gate driving a
/// primary output, in non-increasing weight order. Fewer than `k` paths
/// come back when the circuit has fewer distinct paths, **or** when the
/// search first reaches its limit of `(k+1)·max(gates, 64)·8`
/// partial-path expansions: it then stops and returns the paths found
/// so far — on a fabric with many tied paths (`synth10k`) that can be
/// none.
///
/// The weight of a path is the sum of [`TimingView::gate_delay_worst_ps`]
/// over its gates. Accepts any timing backend — a one-shot
/// [`crate::TimingReport`] or an incremental [`crate::TimingGraph`]. The
/// search bounds are derived per call with [`completion_bounds`] — one
/// reverse-topological pass — so on a graph this is a flushing query:
/// pending mutations settle before the first bound is read.
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
    let w = worst_delays(circuit, report);
    let completion = completion_bounds_of(circuit, &w);

    // Source gates: fed by at least one primary input.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut prefixes = Prefixes::default();
    for gid in circuit.gate_ids() {
        let from_pi = circuit
            .gate(gid)
            .inputs()
            .iter()
            .any(|&n| matches!(circuit.net(n).driver(), Some(NetDriver::PrimaryInput)));
        if from_pi && completion[gid.index()].is_finite() {
            heap.push(HeapEntry {
                bound: completion[gid.index()],
                node: prefixes.push(gid, None),
                weight: w[gid.index()],
                complete: false,
            });
        }
    }

    let mut results = Vec::with_capacity(k);
    // Guard against pathological blowup: past this many expansions the
    // search stops and returns what it found (see the docs above).
    let mut expansions = 0usize;
    let expansion_limit = (k + 1) * circuit.gate_count().max(64) * 8;

    while let Some(entry) = heap.pop() {
        if entry.complete {
            results.push(NetlistPath {
                gates: prefixes.path(entry.node),
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
        let last = prefixes.gate[entry.node];
        let out = circuit.gate(last).output();
        if circuit.net(out).is_output() {
            heap.push(HeapEntry {
                bound: entry.weight,
                complete: true,
                ..entry
            });
        }
        for &(succ, _) in circuit.net(out).loads() {
            if completion[succ.index()].is_finite() {
                heap.push(HeapEntry {
                    bound: entry.weight + completion[succ.index()],
                    node: prefixes.push(succ, Some(entry.node)),
                    weight: entry.weight + w[succ.index()],
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
/// gate weights frozen at [`TimingView::gate_delay_worst_ps`]: the
/// admissible bound driving the K-paths search heap, derived afresh on
/// every [`k_most_critical_paths`] call. The flow reads it once per
/// round, and every round moves delays all over the circuit, so a
/// maintained copy would re-derive every gate anyway.
pub fn completion_bounds<V: TimingView + ?Sized>(circuit: &Circuit, report: &V) -> Vec<f64> {
    completion_bounds_of(circuit, &worst_delays(circuit, report))
}

/// Every gate's [`TimingView::gate_delay_worst_ps`], id-indexed: the
/// gate weights of the search.
fn worst_delays<V: TimingView + ?Sized>(circuit: &Circuit, report: &V) -> Vec<f64> {
    circuit
        .gate_ids()
        .map(|g| report.gate_delay_worst_ps(g))
        .collect()
}

/// [`completion_bounds`] under the gate weights `w`, id-indexed.
fn completion_bounds_of(circuit: &Circuit, w: &[f64]) -> Vec<f64> {
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
            w[gid.index()] + best
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
