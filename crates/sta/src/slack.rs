//! Required times and slacks — the backward STA pass.
//!
//! POPS decides *where* to spend optimization effort from path slacks:
//! a negative-slack net sits on a path that misses the constraint. The
//! backward pass propagates required times from the primary outputs
//! through the same arcs (and the same arc delays) the forward pass
//! used.
//!
//! # Value domains (the NaN policy)
//!
//! Required times are `+inf` on unconstrained nets (no path to a
//! primary output) and finite everywhere else; arrivals are `-inf` on
//! forward-unreachable nets and finite everywhere else. Slack
//! (`required − arrival`) is therefore **finite or `+inf`, never NaN**:
//! the only NaN-producing combination (`+inf − +inf` / `-inf − -inf`)
//! cannot occur. A `+inf` slack means "this net does not constrain the
//! design"; [`SlackReport::worst_slack_overall_ps`] skips those and
//! returns `None` when *no* net carries a finite slack (e.g. a circuit
//! with zero primary outputs).
//!
//! # Critical-output trees
//!
//! The crate-private `MinTree` keeps a minimum up to date under point
//! updates. The incremental [`TimingGraph`](crate::TimingGraph) keeps
//! one per corner over minus each primary output's later arrival,
//! which makes the critical delay an O(1) read and lets
//! [`TimingGraph::meets_constraint`](crate::TimingGraph::meets_constraint)
//! decide the constraint without a backward pass. The design-worst
//! slack is one fold per read, the same in both backends:
//! [`SlackReport::worst_slack_overall_ps`] and the graph's
//! `worst_slack_overall_ps[_corner]` land on the same bits.

use pops_delay::model::gate_delay_with_output_edge;
use pops_delay::Library;
use pops_netlist::{Circuit, NetId, NetlistError};

use crate::analysis::{compatible_input_edges, eidx, EdgeDir, TimingView, EDGES};
use crate::sizing::Sizing;

/// The design-worst finite slack of `(required, arrival)` pairs: the
/// [`min2`] fold of their [`slack_key`]s, `None` when no pair carries a
/// finite slack. Both backends fold with it, so their answers are
/// bit-identical.
pub(crate) fn worst_slack_of(pairs: impl Iterator<Item = ([f64; 2], [f64; 2])>) -> Option<f64> {
    let worst = pairs
        .map(|(required, arrival)| slack_key(required, arrival))
        .fold(f64::INFINITY, min2);
    (worst != f64::INFINITY).then_some(worst)
}

/// Deterministic two-way minimum over non-NaN keys. On keys whose equal
/// values have equal bits (no `-0.0` beside a `+0.0`), any order or
/// association of the minimum lands on the same bits, so a
/// [`MinTree`]'s root equals the linear fold.
#[inline]
pub(crate) fn min2(a: f64, b: f64) -> f64 {
    if a <= b {
        a
    } else {
        b
    }
}

/// The worst-slack key of one net on one corner: its worst finite slack
/// over both edges, `+inf` when no edge carries one.
pub(crate) fn slack_key(required: [f64; 2], arrival: [f64; 2]) -> f64 {
    let mut k = f64::INFINITY;
    for i in 0..2 {
        let s = required[i] - arrival[i];
        if s.is_finite() && s < k {
            k = s;
        }
    }
    k
}

/// An incrementally maintained minimum: a tournament tree of partial
/// minima over one key per leaf.
///
/// Every internal node holds the [`min2`] of its two children, so the
/// root *is* the minimum key. A leaf update re-derives only its root
/// path and stops as soon as a parent is bit-unchanged: O(log leaves)
/// per moved key, against the O(leaves) fold a query would pay. Keys
/// are finite or the `+inf` neutral element; the tree is a function of
/// its leaves alone, so per-leaf updates and a wholesale rebuild land on
/// the same bits.
///
/// The incremental [`TimingGraph`](crate::incremental::TimingGraph)
/// keeps one **critical-output tree** per corner, one leaf per primary
/// output keyed by `−max(arrival)` over its two edges (`+inf` where
/// unreachable); the forward step updates the leaf whenever an output's
/// arrival moves, so the critical delay is O(1) after any forward
/// flush.
#[derive(Debug, Clone)]
pub(crate) struct MinTree {
    /// Leaf capacity: leaf count rounded up to a power of two (so the
    /// tree is complete and parent/child arithmetic is shift-only).
    cap: usize,
    /// 1-based heap layout: `tree[1]` is the root, leaves occupy
    /// `tree[cap .. cap + leaves]`; `+inf` pads unused slots (the
    /// neutral element of the min).
    tree: Vec<f64>,
}

impl MinTree {
    /// A tree over `leaves` leaves, all at the `+inf` neutral key.
    pub(crate) fn new(leaves: usize) -> Self {
        let cap = leaves.next_power_of_two().max(1);
        MinTree {
            cap,
            tree: vec![f64::INFINITY; 2 * cap],
        }
    }

    /// Replace one leaf's key and re-derive the partial minima along its
    /// root path; O(log leaves), cut short where a parent is
    /// bit-unchanged.
    pub(crate) fn update(&mut self, leaf: usize, key: f64) {
        // The key domain is finite-or-`+inf` (the neutral element) by
        // construction of the keys. A NaN or `-inf` smuggled in here is
        // the only way the root could ever fold an all-neutral tree into
        // a bogus finite answer — refuse it at the boundary instead of
        // letting `min2` propagate it silently.
        debug_assert!(
            !key.is_nan() && key != f64::NEG_INFINITY,
            "min-tree keys are finite or the +inf neutral element, got {key}"
        );
        let mut i = self.cap + leaf;
        if self.tree[i].to_bits() == key.to_bits() {
            return;
        }
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let m = min2(self.tree[2 * i], self.tree[2 * i + 1]);
            if self.tree[i].to_bits() == m.to_bits() {
                break;
            }
            self.tree[i] = m;
        }
    }

    /// The minimum key; `+inf` when every leaf holds the neutral
    /// element.
    pub(crate) fn root(&self) -> f64 {
        self.tree[1]
    }

    /// Rebuild wholesale from one key per leaf — O(leaves) min folds,
    /// used when every key may have moved (after a full forward sweep). The tree is created at its final size:
    /// `keys` holds one key per leaf it was created for, and the padding
    /// leaves past them keep the `+inf` neutral element.
    pub(crate) fn rebuild(&mut self, keys: &[f64]) {
        debug_assert!(
            keys.iter().all(|k| !k.is_nan() && *k != f64::NEG_INFINITY),
            "min-tree keys are finite or the +inf neutral element"
        );
        let cap = self.cap;
        self.tree[cap..cap + keys.len()].copy_from_slice(keys);
        for i in (1..cap).rev() {
            self.tree[i] = min2(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Deep-consistency audit for
    /// [`verify_state`](crate::TimingGraph::verify_state): every leaf
    /// must bit-match its independently recomputed key, padding leaves
    /// must still hold the `+inf` neutral element, and every internal
    /// node (the root included) must bit-match the `min2` of its
    /// children — i.e. the incrementally maintained tree is exactly the
    /// tree [`MinTree::rebuild`] would produce from `keys`.
    pub(crate) fn audit_against(&self, keys: &[f64]) -> Result<(), String> {
        if keys.len() > self.cap || self.tree.len() != 2 * self.cap {
            return Err(format!(
                "tree sized for {} leaves, {} keys",
                self.cap,
                keys.len()
            ));
        }
        for (leaf, &key) in keys.iter().enumerate() {
            let held = self.tree[self.cap + leaf];
            if held.to_bits() != key.to_bits() {
                return Err(format!(
                    "leaf {leaf} holds {held} but the slabs refold to {key}"
                ));
            }
        }
        for (i, &pad) in self.tree[self.cap + keys.len()..].iter().enumerate() {
            if pad != f64::INFINITY {
                return Err(format!(
                    "padding leaf {} holds {pad}, not the +inf neutral element",
                    keys.len() + i
                ));
            }
        }
        for i in (1..self.cap).rev() {
            let m = min2(self.tree[2 * i], self.tree[2 * i + 1]);
            if self.tree[i].to_bits() != m.to_bits() {
                return Err(format!(
                    "node {i} holds {} but its children fold to {m}",
                    self.tree[i]
                ));
            }
        }
        Ok(())
    }
}

/// Result of the backward (required-time) pass.
#[derive(Debug, Clone)]
pub struct SlackReport {
    /// The constraint the pass ran against (ps).
    tc_ps: f64,
    /// `required[net][edge]` in ps; `+inf` where unconstrained.
    required: Vec<[f64; 2]>,
    /// Copy of the forward arrivals for slack computation.
    arrival: Vec<[f64; 2]>,
}

impl SlackReport {
    /// The cycle constraint the required times were computed against
    /// (ps).
    pub fn constraint_ps(&self) -> f64 {
        self.tc_ps
    }

    /// Required time of a net for an edge (ps); `+inf` where
    /// unconstrained.
    pub fn required_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.required[net.index()][eidx(edge.into())]
    }

    /// Slack of a net for an edge (ps): `required − arrival`. Negative
    /// means the net lies on a violating path; `+inf` means
    /// unconstrained (never NaN — see the module docs).
    pub fn slack_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        let i = eidx(edge.into());
        self.required[net.index()][i] - self.arrival[net.index()][i]
    }

    /// Worst (most negative) slack over both edges of a net.
    pub fn worst_slack_ps(&self, net: NetId) -> f64 {
        self.slack_ps(net, EdgeDir::Rising)
            .min(self.slack_ps(net, EdgeDir::Falling))
    }

    /// Worst finite slack over the whole design.
    ///
    /// Returns `None` when no net carries a finite slack — a circuit
    /// with zero primary outputs has nothing to constrain, and the old
    /// `+inf` sentinel read like an infinitely relaxed design.
    pub fn worst_slack_overall_ps(&self) -> Option<f64> {
        worst_slack_of(
            self.required
                .iter()
                .copied()
                .zip(self.arrival.iter().copied()),
        )
    }
}

/// Backward pass: compute required times against a cycle constraint
/// `tc_ps` applied at every primary output.
///
/// Must be called with the same circuit/sizing the `report` was computed
/// from (arc delays are re-derived with the report's slopes). Accepts any
/// timing backend — a one-shot [`crate::TimingReport`] or an incremental
/// [`crate::TimingGraph`] — so the sizing loop never forces a full
/// re-analysis just to read slacks. A graph answers the same queries
/// itself after
/// [`set_constraint`](crate::incremental::TimingGraph::set_constraint),
/// with one sweep over its cached constants per stale read,
/// bit-identical to this pass.
///
/// # Errors
///
/// Propagates [`Circuit::topo_order`] errors.
pub fn required_times<V: TimingView + ?Sized>(
    circuit: &Circuit,
    lib: &Library,
    sizing: &Sizing,
    report: &V,
    tc_ps: f64,
) -> Result<SlackReport, NetlistError> {
    let order = circuit.topo_order()?;
    let n_nets = circuit.net_count();
    let mut required = vec![[f64::INFINITY; 2]; n_nets];
    let mut arrival = vec![[f64::NEG_INFINITY; 2]; n_nets];

    for net in circuit.net_ids() {
        for (i, dir) in [(0usize, EdgeDir::Rising), (1, EdgeDir::Falling)] {
            arrival[net.index()][i] = report.arrival_ps(net, dir);
        }
        if circuit.net(net).is_output() {
            required[net.index()] = [tc_ps; 2];
        }
    }

    for &gid in order.iter().rev() {
        let gate = circuit.gate(gid);
        let out = gate.output();
        let cin = sizing.cin_ff(gid);
        let load = report.net_load_ff(out);
        for out_edge in EDGES {
            let req_out = required[out.index()][eidx(out_edge)];
            if req_out == f64::INFINITY {
                continue;
            }
            for &in_net in gate.inputs() {
                for &in_edge in compatible_input_edges(gate.kind(), out_edge) {
                    let dir: EdgeDir = in_edge.into();
                    let slope = report.slope_ps(in_net, dir);
                    let d = gate_delay_with_output_edge(
                        lib,
                        gate.kind(),
                        cin,
                        load,
                        slope,
                        in_edge,
                        out_edge,
                    );
                    let candidate = req_out - d.delay_ps;
                    let slot = &mut required[in_net.index()][eidx(in_edge)];
                    if candidate < *slot {
                        *slot = candidate;
                    }
                }
            }
        }
    }

    Ok(SlackReport {
        tc_ps,
        required,
        arrival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, TimingReport};
    use pops_netlist::builders::{inverter_chain, ripple_carry_adder};
    use pops_netlist::CellKind;

    fn setup(c: &Circuit) -> (Library, Sizing, TimingReport) {
        let lib = Library::cmos025();
        let s = Sizing::minimum(c, &lib);
        let r = analyze(c, &lib, &s).unwrap();
        (lib, s, r)
    }

    #[test]
    fn slack_zero_at_exact_constraint_on_critical_output() {
        let c = inverter_chain(5);
        let (lib, s, r) = setup(&c);
        let tc = r.critical_delay_ps();
        let slacks = required_times(&c, &lib, &s, &r, tc).unwrap();
        // The critical output's slack is exactly zero.
        let worst = slacks.worst_slack_overall_ps().unwrap();
        assert!(worst.abs() < 1e-6, "worst slack {worst}");
    }

    #[test]
    fn slack_is_negative_under_an_impossible_constraint() {
        let c = inverter_chain(4);
        let (lib, s, r) = setup(&c);
        let slacks = required_times(&c, &lib, &s, &r, 0.5 * r.critical_delay_ps()).unwrap();
        assert!(slacks.worst_slack_overall_ps().unwrap() < 0.0);
    }

    #[test]
    fn slack_is_positive_under_a_loose_constraint() {
        let c = ripple_carry_adder(4);
        let (lib, s, r) = setup(&c);
        let slacks = required_times(&c, &lib, &s, &r, 2.0 * r.critical_delay_ps()).unwrap();
        assert!(slacks.worst_slack_overall_ps().unwrap() > 0.0);
    }

    #[test]
    fn critical_path_nets_carry_the_worst_slack() {
        let c = ripple_carry_adder(4);
        let (lib, s, r) = setup(&c);
        let tc = r.critical_delay_ps();
        let slacks = required_times(&c, &lib, &s, &r, tc).unwrap();
        let worst = slacks.worst_slack_overall_ps().unwrap();
        let path = r.critical_path();
        // Every gate output along the critical path carries (close to)
        // the design-worst slack.
        let last = *path.gates.last().unwrap();
        let out = c.gate(last).output();
        assert!(
            (slacks.worst_slack_ps(out) - worst).abs() < 1e-6,
            "endpoint slack {} vs worst {worst}",
            slacks.worst_slack_ps(out)
        );
    }

    #[test]
    fn moving_the_constraint_shifts_slack_linearly() {
        let c = inverter_chain(3);
        let (lib, s, r) = setup(&c);
        let t0 = r.critical_delay_ps();
        let s1 = required_times(&c, &lib, &s, &r, t0).unwrap();
        let s2 = required_times(&c, &lib, &s, &r, t0 + 100.0).unwrap();
        let d = s2.worst_slack_overall_ps().unwrap() - s1.worst_slack_overall_ps().unwrap();
        assert!((d - 100.0).abs() < 1e-6, "slack shift {d}");
    }

    #[test]
    fn zero_output_circuit_has_no_overall_slack() {
        // A circuit whose gates feed nothing marked as a primary output:
        // nothing is constrained, so there is no worst slack — the old
        // `+inf` sentinel read like an infinitely relaxed design.
        let mut c = Circuit::new("no-po");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let _y = c.add_gate(CellKind::Nand2, &[a, b], "y").unwrap();
        let (lib, s, r) = setup(&c);
        let slacks = required_times(&c, &lib, &s, &r, 100.0).unwrap();
        assert_eq!(slacks.worst_slack_overall_ps(), None);
        // Per-net queries still answer: everything is unconstrained.
        for net in c.net_ids() {
            assert_eq!(slacks.worst_slack_ps(net), f64::INFINITY);
            assert!(!slacks.worst_slack_ps(net).is_nan());
        }
    }

    #[test]
    fn tournament_tree_agrees_with_the_fold() {
        use pops_netlist::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x0070_4E1D);
        for nets in [0usize, 1, 2, 3, 17, 64, 65, 200] {
            // Random (required, arrival) pairs mixing finite values with
            // the real domains' infinities.
            let pairs: Vec<([f64; 2], [f64; 2])> = (0..nets)
                .map(|_| {
                    let mut required = [0.0f64; 2];
                    let mut arrival = [0.0f64; 2];
                    for i in 0..2 {
                        required[i] = if rng.chance(0.2) {
                            f64::INFINITY
                        } else {
                            1000.0 * rng.next_f64()
                        };
                        arrival[i] = if rng.chance(0.1) {
                            f64::NEG_INFINITY
                        } else {
                            1000.0 * rng.next_f64()
                        };
                    }
                    (required, arrival)
                })
                .collect();
            let keys: Vec<f64> = pairs.iter().map(|&(r, a)| slack_key(r, a)).collect();
            let finite_min = |tree: &MinTree| Some(tree.root()).filter(|r| r.is_finite());
            let mut index = MinTree::new(nets);
            index.rebuild(&keys);
            let fold = worst_slack_of(pairs.iter().copied());
            assert_eq!(finite_min(&index).map(f64::to_bits), fold.map(f64::to_bits));

            // Point updates converge to the same root as a rebuild.
            let mut incremental = MinTree::new(nets);
            for (i, &k) in keys.iter().enumerate() {
                incremental.update(i, k);
            }
            assert_eq!(
                finite_min(&incremental).map(f64::to_bits),
                fold.map(f64::to_bits)
            );
            // Raising the minimum's key re-derives the next-worst.
            if nets > 1 {
                if let Some(worst) = fold {
                    let pos = keys.iter().position(|k| k.to_bits() == worst.to_bits());
                    if let Some(pos) = pos {
                        let mut rest = keys.clone();
                        rest[pos] = f64::INFINITY;
                        incremental.update(pos, f64::INFINITY);
                        let mut refold = MinTree::new(nets);
                        refold.rebuild(&rest);
                        assert_eq!(
                            finite_min(&incremental).map(f64::to_bits),
                            finite_min(&refold).map(f64::to_bits)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn constraint_is_recorded_on_the_report() {
        let c = inverter_chain(3);
        let (lib, s, r) = setup(&c);
        let slacks = required_times(&c, &lib, &s, &r, 123.5).unwrap();
        assert_eq!(slacks.constraint_ps(), 123.5);
    }
}
