//! Dual-edge block-based static timing analysis with slope propagation.
//!
//! Arrival times and transition times are propagated per net and per edge
//! direction (rise/fall). Unateness follows the cell polarity: inverting
//! cells propagate a falling input into a rising output, the XOR family is
//! binate (both input edges can cause either output edge).

use pops_delay::model::{gate_delay_with_output_edge, Edge};
use pops_delay::Library;
use pops_netlist::{CellKind, Circuit, GateId, NetDriver, NetId, NetlistError};

use crate::sizing::Sizing;
use crate::slack::SlackReport;

/// Options for an STA run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOptions {
    /// Load added to every primary-output net (fF): the input capacitance
    /// of the capturing latch. The paper's bounded-path terminal load.
    pub po_load_ff: f64,
    /// Transition time assumed at primary inputs (ps).
    pub input_transition_ps: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            po_load_ff: 10.0,
            input_transition_ps: 50.0,
        }
    }
}

/// A simple (gate-disjoint) combinational path through a circuit, from a
/// primary-input-fed gate to a gate driving a primary output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistPath {
    /// Gates in path order (fanin first).
    pub gates: Vec<GateId>,
    /// Edge direction at the path's endpoint output.
    pub end_edge: EdgeDir,
}

/// Serializable mirror of [`Edge`] used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    /// Low-to-high.
    Rising,
    /// High-to-low.
    Falling,
}

impl From<Edge> for EdgeDir {
    fn from(e: Edge) -> Self {
        match e {
            Edge::Rising => EdgeDir::Rising,
            Edge::Falling => EdgeDir::Falling,
        }
    }
}

impl From<EdgeDir> for Edge {
    fn from(e: EdgeDir) -> Self {
        match e {
            EdgeDir::Rising => Edge::Rising,
            EdgeDir::Falling => Edge::Falling,
        }
    }
}

pub(crate) const EDGES: [Edge; 2] = [Edge::Rising, Edge::Falling];

pub(crate) fn eidx(e: Edge) -> usize {
    match e {
        Edge::Rising => 0,
        Edge::Falling => 1,
    }
}

/// Which input edges of `cell` can produce output edge `out`.
pub(crate) fn compatible_input_edges(cell: CellKind, out: Edge) -> &'static [Edge] {
    const BOTH: [Edge; 2] = [Edge::Rising, Edge::Falling];
    const RISE: [Edge; 1] = [Edge::Rising];
    const FALL: [Edge; 1] = [Edge::Falling];
    match cell {
        CellKind::Xor2 | CellKind::Xnor2 => &BOTH,
        c if c.is_inverting() => match out {
            Edge::Rising => &FALL,
            Edge::Falling => &RISE,
        },
        _ => match out {
            Edge::Rising => &RISE,
            Edge::Falling => &FALL,
        },
    }
}

/// Read-only view over a timing state: the query surface shared by the
/// one-shot [`TimingReport`] and the incremental
/// [`crate::incremental::TimingGraph`].
///
/// Consumers that only *read* timing (K-paths ranking, slack computation,
/// the circuit-level flow) are generic over this trait, so they work
/// unchanged whether the numbers came from a full `analyze` pass or from
/// dirty-cone re-propagation.
pub trait TimingView {
    /// Worst arrival time over all primary outputs (ps).
    fn critical_delay_ps(&self) -> f64;
    /// Arrival time of a net for a given edge (ps), `-inf` if unreachable.
    fn arrival_ps(&self, net: NetId, edge: EdgeDir) -> f64;
    /// Transition time of a net for a given edge (ps).
    fn slope_ps(&self, net: NetId, edge: EdgeDir) -> f64;
    /// Capacitive load on a net (fF), including the latch load at
    /// primary outputs.
    fn net_load_ff(&self, net: NetId) -> f64;
    /// Worst-case delay of a gate (ps) under the analyzed slopes.
    fn gate_delay_worst_ps(&self, gate: GateId) -> f64;

    /// K-most-critical-paths completion bounds maintained by this
    /// backend, if any: `completion[gate.index()]` is the frozen-weight
    /// longest completion from the gate to any primary output (ps;
    /// `-inf` off every PI→PO path). `None` makes
    /// [`crate::k_most_critical_paths`] derive the bounds from scratch;
    /// a [`crate::TimingGraph`] with a constraint set flushes its lazy
    /// backward state and returns a copy of its incrementally
    /// maintained (bit-identical) array instead. Owned rather than
    /// borrowed so an interior-mutable backend can bring the bounds up
    /// to date inside this `&self` call; the O(gates) copy is noise
    /// next to the heap search it feeds.
    fn cached_completion_ps(&self) -> Option<Vec<f64>> {
        None
    }

    /// A materialized backward state under exactly `tc_ps` *and*
    /// `sizing`, if this backend maintains one (see
    /// [`set_constraint`](crate::incremental::TimingGraph::set_constraint)).
    /// Lets [`crate::required_times`] skip the full backward pass; the
    /// returned report is bit-identical to what that pass computes. A
    /// sizing that differs from the backend's own must return `None` so
    /// a probe sizing is never silently answered from the cache.
    fn cached_required_times(&self, tc_ps: f64, sizing: &Sizing) -> Option<SlackReport> {
        let _ = (tc_ps, sizing);
        None
    }
}

impl TimingView for TimingReport {
    fn critical_delay_ps(&self) -> f64 {
        TimingReport::critical_delay_ps(self)
    }
    fn arrival_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        TimingReport::arrival_ps(self, net, edge)
    }
    fn slope_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        TimingReport::slope_ps(self, net, edge)
    }
    fn net_load_ff(&self, net: NetId) -> f64 {
        TimingReport::net_load_ff(self, net)
    }
    fn gate_delay_worst_ps(&self, gate: GateId) -> f64 {
        TimingReport::gate_delay_worst_ps(self, gate)
    }
}

/// Result of an STA run: per-net, per-edge arrival and slope data plus the
/// traceback needed to reconstruct critical paths.
#[derive(Debug, Clone)]
pub struct TimingReport {
    options: AnalyzeOptions,
    /// `arrival[net][edge]` in ps; `-inf` where unreachable.
    arrival: Vec<[f64; 2]>,
    /// `slope[net][edge]` in ps.
    slope: Vec<[f64; 2]>,
    /// Predecessor `(net, input edge)` of the worst arrival.
    pred: Vec<[Option<(NetId, Edge)>; 2]>,
    /// Load (fF) on each net under the analyzed sizing.
    net_load: Vec<f64>,
    /// Worst-case delay of each gate under the analyzed slopes (kpaths
    /// weight).
    gate_delay_worst: Vec<f64>,
    /// Driver gate of each net (`None` for primary inputs).
    net_driver: Vec<Option<GateId>>,
    critical_net: Option<(NetId, Edge)>,
    outputs: Vec<NetId>,
}

impl TimingReport {
    /// Worst arrival time over all primary outputs (ps).
    pub fn critical_delay_ps(&self) -> f64 {
        self.critical_net
            .map(|(n, e)| self.arrival[n.index()][eidx(e)])
            .unwrap_or(0.0)
    }

    /// Arrival time of a net for a given edge (ps), `-inf` if unreachable.
    pub fn arrival_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.arrival[net.index()][eidx(edge.into())]
    }

    /// Transition time of a net for a given edge (ps).
    pub fn slope_ps(&self, net: NetId, edge: EdgeDir) -> f64 {
        self.slope[net.index()][eidx(edge.into())]
    }

    /// Capacitive load on a net (fF) under the analyzed sizing, including
    /// the primary-output latch load where applicable.
    pub fn net_load_ff(&self, net: NetId) -> f64 {
        self.net_load[net.index()]
    }

    /// Worst-case delay of a gate (ps) under the analyzed slopes. Used as
    /// the node weight for K-most-critical-path search.
    pub fn gate_delay_worst_ps(&self, gate: GateId) -> f64 {
        self.gate_delay_worst[gate.index()]
    }

    /// The options the analysis ran with.
    pub fn options(&self) -> &AnalyzeOptions {
        &self.options
    }

    /// The most critical path: traceback from the worst primary output.
    ///
    /// Returns an empty path only for circuits without gates.
    pub fn critical_path(&self) -> NetlistPath {
        let Some((net, edge)) = self.critical_net else {
            return NetlistPath {
                gates: Vec::new(),
                end_edge: EdgeDir::Rising,
            };
        };
        self.path_to(net, edge)
    }

    /// Traceback the worst path ending at `net` with `edge`.
    pub fn path_to(&self, net: NetId, edge: Edge) -> NetlistPath {
        let mut gates = Vec::new();
        let mut cur = Some((net, edge));
        while let Some((n, e)) = cur {
            if let Some(gid) = self.net_driver[n.index()] {
                gates.push(gid);
            }
            cur = self.pred[n.index()][eidx(e)];
        }
        gates.reverse();
        NetlistPath {
            gates,
            end_edge: edge.into(),
        }
    }

    /// Primary output nets seen by the analysis.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }
}

/// Run STA and return a [`TimingReport`].
///
/// # Errors
///
/// Propagates netlist structural errors (cycles, undriven nets) from
/// [`Circuit::topo_order`]; [`NetlistError::InvalidId`] when `sizing`
/// does not have exactly one entry per gate of `circuit`.
pub fn analyze(
    circuit: &Circuit,
    lib: &Library,
    sizing: &Sizing,
) -> Result<TimingReport, NetlistError> {
    analyze_with(circuit, lib, sizing, &AnalyzeOptions::default())
}

/// [`analyze`] with explicit options.
///
/// # Errors
///
/// As [`analyze`].
pub fn analyze_with(
    circuit: &Circuit,
    lib: &Library,
    sizing: &Sizing,
    options: &AnalyzeOptions,
) -> Result<TimingReport, NetlistError> {
    sizing.check_covers(circuit)?;
    let order = circuit.topo_order()?;
    let n_nets = circuit.net_count();

    let mut arrival = vec![[f64::NEG_INFINITY; 2]; n_nets];
    let mut slope = vec![[0.0f64; 2]; n_nets];
    let mut pred: Vec<[Option<(NetId, Edge)>; 2]> = vec![[None, None]; n_nets];

    // Net loads under this sizing.
    let mut net_load = vec![0.0f64; n_nets];
    for net in circuit.net_ids() {
        let mut load = 0.0;
        for &(g, _pin) in circuit.net(net).loads() {
            load += sizing.cin_ff(g);
        }
        if circuit.net(net).is_output() {
            load += options.po_load_ff;
        }
        net_load[net.index()] = load;
    }

    for &pi in circuit.primary_inputs() {
        for e in EDGES {
            arrival[pi.index()][eidx(e)] = 0.0;
            slope[pi.index()][eidx(e)] = options.input_transition_ps;
        }
    }

    let mut gate_delay_worst = vec![0.0f64; circuit.gate_count()];

    for gid in order {
        let gate = circuit.gate(gid);
        let cell = gate.kind();
        let out = gate.output();
        let cin = sizing.cin_ff(gid);
        let load = net_load[out.index()];
        let mut worst_gate_delay = 0.0f64;
        for out_edge in EDGES {
            let mut best: Option<(f64, f64, NetId, Edge)> = None;
            for &in_net in gate.inputs() {
                for &in_edge in compatible_input_edges(cell, out_edge) {
                    let t_in = arrival[in_net.index()][eidx(in_edge)];
                    if t_in == f64::NEG_INFINITY {
                        continue;
                    }
                    let s_in = slope[in_net.index()][eidx(in_edge)];
                    let d =
                        gate_delay_with_output_edge(lib, cell, cin, load, s_in, in_edge, out_edge);
                    worst_gate_delay = worst_gate_delay.max(d.delay_ps);
                    let t_out = t_in + d.delay_ps;
                    if best.map(|(t, ..)| t_out > t).unwrap_or(true) {
                        best = Some((t_out, d.output_transition_ps, in_net, in_edge));
                    }
                }
            }
            if let Some((t, s, n, e)) = best {
                if t > arrival[out.index()][eidx(out_edge)] {
                    arrival[out.index()][eidx(out_edge)] = t;
                    slope[out.index()][eidx(out_edge)] = s;
                    pred[out.index()][eidx(out_edge)] = Some((n, e));
                }
            }
        }
        gate_delay_worst[gid.index()] = worst_gate_delay;
    }

    let mut critical: Option<(NetId, Edge, f64)> = None;
    for &po in circuit.primary_outputs() {
        for e in EDGES {
            let t = arrival[po.index()][eidx(e)];
            if t > critical.map(|(_, _, c)| c).unwrap_or(f64::NEG_INFINITY) {
                critical = Some((po, e, t));
            }
        }
    }

    let net_driver = circuit
        .net_ids()
        .map(|n| match circuit.net(n).driver() {
            Some(NetDriver::Gate(g)) => Some(g),
            _ => None,
        })
        .collect();

    Ok(TimingReport {
        options: options.clone(),
        arrival,
        slope,
        pred,
        net_load,
        gate_delay_worst,
        net_driver,
        critical_net: critical.map(|(n, e, _)| (n, e)),
        outputs: circuit.primary_outputs().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_netlist::builders::{inverter_chain, ripple_carry_adder};
    use pops_netlist::suite;

    fn setup(c: &Circuit) -> (Library, Sizing) {
        let lib = Library::cmos025();
        let s = Sizing::minimum(c, &lib);
        (lib, s)
    }

    #[test]
    fn chain_delay_grows_with_length() {
        let lib = Library::cmos025();
        let mut last = 0.0;
        for n in [2, 4, 8, 16] {
            let c = inverter_chain(n);
            let s = Sizing::minimum(&c, &lib);
            let r = analyze(&c, &lib, &s).unwrap();
            assert!(r.critical_delay_ps() > last, "n={n}");
            last = r.critical_delay_ps();
        }
    }

    #[test]
    fn critical_path_of_chain_is_the_chain() {
        let c = inverter_chain(6);
        let (lib, s) = setup(&c);
        let r = analyze(&c, &lib, &s).unwrap();
        let p = r.critical_path();
        assert_eq!(p.gates.len(), 6);
        // Gates must be in fanin-first order.
        let levels = c.logic_levels().unwrap();
        for w in p.gates.windows(2) {
            assert!(levels[w[0].index()] < levels[w[1].index()]);
        }
    }

    #[test]
    fn adder_critical_path_follows_the_carry_chain() {
        let c = ripple_carry_adder(8);
        let (lib, s) = setup(&c);
        let r = analyze(&c, &lib, &s).unwrap();
        let p = r.critical_path();
        // The carry ripple dominates: path length should be close to the
        // circuit depth.
        let depth = c.depth().unwrap();
        assert!(
            p.gates.len() >= depth - 2,
            "path {} vs depth {depth}",
            p.gates.len()
        );
    }

    #[test]
    fn critical_path_length_matches_suite_profile() {
        for name in ["c432", "c880", "fpd"] {
            let c = suite::circuit(name).unwrap();
            let (lib, s) = setup(&c);
            let r = analyze(&c, &lib, &s).unwrap();
            let p = r.critical_path();
            // The spine is the structurally longest path; with uniform
            // minimum sizing the timing-critical path should have the same
            // gate count (slope effects cannot shorten it below depth-1).
            let depth = c.depth().unwrap();
            assert!(
                p.gates.len() + 1 >= depth,
                "{name}: path {} vs depth {depth}",
                p.gates.len()
            );
        }
    }

    #[test]
    fn heavier_po_load_increases_delay() {
        let c = inverter_chain(3);
        let (lib, s) = setup(&c);
        let light = analyze_with(
            &c,
            &lib,
            &s,
            &AnalyzeOptions {
                po_load_ff: 5.0,
                ..Default::default()
            },
        )
        .unwrap();
        let heavy = analyze_with(
            &c,
            &lib,
            &s,
            &AnalyzeOptions {
                po_load_ff: 80.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(heavy.critical_delay_ps() > light.critical_delay_ps());
    }

    #[test]
    fn upsizing_critical_gate_reduces_delay() {
        let c = inverter_chain(5);
        let (lib, mut s) = setup(&c);
        let before = analyze(&c, &lib, &s).unwrap().critical_delay_ps();
        // Upsize a middle gate.
        let mid = c.gate_ids().nth(2).unwrap();
        s.set(mid, 3.0 * lib.min_drive_ff());
        // Middle gate of an inverter chain at min drive is overloaded by
        // its successor; upsizing changes delay; with successor still at
        // min drive the net effect on this chain is a faster stage 3 but a
        // heavier load on stage 2 — total should *drop* because stage 3's
        // drive improvement dominates at equal loads... verify empirically
        // that the delay at least changes and stays positive.
        let after = analyze(&c, &lib, &s).unwrap().critical_delay_ps();
        assert!(after > 0.0);
        assert_ne!(before, after);
    }

    #[test]
    fn arrivals_are_monotone_along_the_critical_path() {
        let c = suite::circuit("fpd").unwrap();
        let (lib, s) = setup(&c);
        let r = analyze(&c, &lib, &s).unwrap();
        let p = r.critical_path();
        let mut last = -1.0;
        for &g in &p.gates {
            let out = c.gate(g).output();
            let worst = r
                .arrival_ps(out, EdgeDir::Rising)
                .max(r.arrival_ps(out, EdgeDir::Falling));
            assert!(worst > last);
            last = worst;
        }
    }

    #[test]
    fn xor_paths_propagate_both_edges() {
        use pops_netlist::CellKind;
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate(CellKind::Xor2, &[a, b], "y").unwrap();
        c.mark_output(y);
        let (lib, s) = setup(&c);
        let r = analyze(&c, &lib, &s).unwrap();
        // Both output edges must be reachable through the binate cell.
        assert!(r.arrival_ps(y, EdgeDir::Rising).is_finite());
        assert!(r.arrival_ps(y, EdgeDir::Falling).is_finite());
    }

    #[test]
    fn gate_worst_delays_are_positive() {
        let c = suite::circuit("fpd").unwrap();
        let (lib, s) = setup(&c);
        let r = analyze(&c, &lib, &s).unwrap();
        for g in c.gate_ids() {
            assert!(r.gate_delay_worst_ps(g) > 0.0);
        }
    }
}
