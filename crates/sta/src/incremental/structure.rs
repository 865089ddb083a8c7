//! The circuit-derived arrays of a [`TimingGraph`](super::TimingGraph)
//! and their one constructor.
//!
//! # Rank-major slabs
//!
//! At 100k–1M gates the full sweeps are memory-bound, so the
//! floating-point state lives in **rank-major struct-of-arrays slabs**
//! instead of id-keyed records. The cached topo order is *level-major*:
//! gates are counting-sorted by logic level (stable by topo order
//! within a level), `rank[g]` is the gate's position in that order and
//! `level_start[l] .. level_start[l+1]` delimits level `l` — the level
//! profile the drain-or-sweep rule reads off a dirty set. A level-major
//! order is still a topological order, so ascending and descending
//! drains work unchanged. Net state is indexed by
//! **slot**: the driverless nets (primary inputs and any undriven nets)
//! occupy slots `0..n_src` in net-id order, and the net driven by the
//! gate at position `p` occupies slot `n_src + p` — a full sweep
//! therefore *streams* the arrival/slope/load/required slabs in
//! memory order instead of pointer-chasing the netlist.

use pops_netlist::{CellKind, Circuit, GateId, NetId, NetlistError};

use crate::sizing::Sizing;

/// The circuit-derived arrays of a [`TimingGraph`](super::TimingGraph):
/// topology, adjacency and the slot layout — everything except the
/// model constants and the floating-point timing state. Built only by
/// [`build_structure`], at construction and again by
/// [`TimingGraph::apply_edits`](super::TimingGraph::apply_edits), which
/// resets the timing state over the rebuilt arrays.
#[derive(Debug, Clone)]
pub(crate) struct Structure {
    /// Gates in the cached topological order. The order is
    /// **level-major**: counting-sorted by logic level, stable by the
    /// circuit's base topo order within a level — still a topological
    /// order, but with every level contiguous.
    pub(crate) topo: Vec<GateId>,
    /// `rank[gate] = position in `topo`` — the propagation priority.
    pub(crate) rank: Vec<u32>,
    /// Positions `level_start[l] .. level_start[l+1]` form logic level
    /// `l` (0-based here; the netlist's levels are 1-based).
    pub(crate) level_start: Vec<u32>,
    /// Slab slot of each net's timing state: driverless nets take slots
    /// `0..n_src` in net-id order, the net driven by the gate at
    /// position `p` takes slot `n_src + p`.
    pub(crate) slot_of: Vec<u32>,
    /// Number of driverless nets (= the first gate-driven slot).
    pub(crate) n_src: usize,
    /// Driver gate of each net (`None` for primary inputs).
    pub(crate) net_driver: Vec<Option<GateId>>,
    /// Cell kind per gate (flat copy: avoids chasing `circuit.gate()`
    /// in the hot loop).
    pub(crate) cell: Vec<CellKind>,
    /// Output net per gate.
    pub(crate) out_net: Vec<NetId>,
    /// Fanin nets of all gates, flattened; gate `g`'s inputs are
    /// `fanin[fanin_off[g] .. fanin_off[g+1]]`.
    pub(crate) fanin: Vec<NetId>,
    pub(crate) fanin_off: Vec<u32>,
    /// Slab slot of each flattened fanin net (parallel to `fanin`), so
    /// the per-gate kernel never round-trips through net ids.
    pub(crate) fanin_slots: Vec<u32>,
    /// Fanout gates of all nets, flattened; net `n`'s loads are
    /// `fanout[fanout_off[n] .. fanout_off[n+1]]` (one entry per pin).
    pub(crate) fanout: Vec<GateId>,
    pub(crate) fanout_off: Vec<u32>,
    /// Primary-output flag per net (flat copy for the backward hot loop).
    pub(crate) is_po: Vec<bool>,
    /// Primary-output nets, in declaration order (critical scan order);
    /// output `i` is leaf `i` of every corner's critical-output tree.
    pub(crate) pos: Vec<NetId>,
    /// Critical-output leaf per slot: the net's index in `pos`, or
    /// [`NO_LEAF`] for a net that is not a primary output.
    pub(crate) po_leaf: Vec<u32>,
}

/// [`Structure::po_leaf`] of a slot whose net is not a primary output.
pub(crate) const NO_LEAF: u32 = u32::MAX;

impl Structure {
    /// Slots of a gate's fanin nets, in pin order.
    pub(crate) fn fanin_slots_of(&self, gate: GateId) -> &[u32] {
        let gi = gate.index();
        &self.fanin_slots[self.fanin_off[gi] as usize..self.fanin_off[gi + 1] as usize]
    }

    /// Exact load of net `net` (fF) under `sizing`, plus `po_load_ff`
    /// at a primary output: the full pass's sum in its load-pin order
    /// (the flattened fanout keeps the circuit's), so it reproduces that
    /// pass's value bit for bit.
    pub(crate) fn net_load(&self, net: usize, sizing: &Sizing, po_load_ff: f64) -> f64 {
        let (lo, hi) = (
            self.fanout_off[net] as usize,
            self.fanout_off[net + 1] as usize,
        );
        let mut load = 0.0;
        for &g in &self.fanout[lo..hi] {
            load += sizing.cin_ff(g);
        }
        if self.is_po[net] {
            load += po_load_ff;
        }
        load
    }
}

pub(super) fn build_structure(circuit: &Circuit) -> Result<Structure, NetlistError> {
    // Level-major topo order: counting-sort the base topo order by
    // logic level (stable within a level). Every fanin of a gate sits
    // at a strictly lower level, so this is still a topological order —
    // ascending and descending drains work unchanged — and each
    // level is a contiguous run of mutually independent gates.
    let base_topo = circuit.topo_order()?;
    let levels = circuit.logic_levels()?;
    let n_gates = circuit.gate_count();
    // Slots, ranks, level starts and adjacency offsets are stored as
    // `u32`; net and pin counts bound every one of them.
    assert!(
        u32::try_from(circuit.net_count()).is_ok() && u32::try_from(circuit.pin_count()).is_ok(),
        "net and pin counts must fit the u32 slot, rank and offset indices"
    );
    let n_levels = levels.iter().copied().max().unwrap_or(0);
    let mut level_start = vec![0u32; n_levels + 1];
    for &g in &base_topo {
        level_start[levels[g.index()]] += 1;
    }
    for l in 1..level_start.len() {
        level_start[l] += level_start[l - 1];
    }
    debug_assert_eq!(level_start[n_levels] as usize, n_gates);
    // `cursor[l]` = next free position of 1-based level `l + 1`;
    // `level_start` is already the prefix-summed offset table.
    let mut cursor: Vec<u32> = level_start[..n_levels].to_vec();
    let mut topo = base_topo.clone();
    let mut rank = vec![0u32; n_gates];
    for &g in &base_topo {
        let l = levels[g.index()] - 1;
        let r = cursor[l];
        cursor[l] += 1;
        topo[r as usize] = g;
        rank[g.index()] = r;
    }

    let n_nets = circuit.net_count();
    let net_driver: Vec<Option<GateId>> =
        circuit.net_ids().map(|n| circuit.driver_gate(n)).collect();

    // Slab slots: driverless nets first (net-id order), then one slot
    // per gate at `n_src + rank[driver]` — a bijection onto
    // `0..n_nets`, since every gate drives exactly one net.
    let sources: Vec<NetId> = circuit
        .net_ids()
        .filter(|n| net_driver[n.index()].is_none())
        .collect();
    let n_src = sources.len();
    let mut slot_of = vec![0u32; n_nets];
    for (s, n) in sources.iter().enumerate() {
        slot_of[n.index()] = s as u32;
    }
    for (i, d) in net_driver.iter().enumerate() {
        if let Some(g) = d {
            slot_of[i] = (n_src + rank[g.index()] as usize) as u32;
        }
    }
    debug_assert_eq!(n_src + n_gates, n_nets, "slots must cover every net");

    // Flatten the netlist adjacency into contiguous arrays: the cone
    // walk is memory-bound, and per-gate/per-net `Vec`s would cost a
    // pointer chase per visit.
    let cell: Vec<CellKind> = circuit.gate_ids().map(|g| circuit.gate(g).kind()).collect();
    let out_net: Vec<NetId> = circuit
        .gate_ids()
        .map(|g| circuit.gate(g).output())
        .collect();
    let mut fanin = Vec::with_capacity(circuit.pin_count());
    let mut fanin_off = Vec::with_capacity(circuit.gate_count() + 1);
    fanin_off.push(0u32);
    for g in circuit.gate_ids() {
        fanin.extend_from_slice(circuit.gate(g).inputs());
        fanin_off.push(fanin.len() as u32);
    }
    let mut fanout = Vec::with_capacity(circuit.pin_count());
    let mut fanout_off = Vec::with_capacity(n_nets + 1);
    fanout_off.push(0u32);
    for n in circuit.net_ids() {
        fanout.extend(circuit.fanout_gates(n));
        fanout_off.push(fanout.len() as u32);
    }
    let fanin_slots: Vec<u32> = fanin.iter().map(|n| slot_of[n.index()]).collect();
    // `mark_output` is idempotent, so each output is listed once.
    let pos = circuit.primary_outputs().to_vec();
    let mut po_leaf = vec![NO_LEAF; n_nets];
    for (leaf, po) in pos.iter().enumerate() {
        po_leaf[slot_of[po.index()] as usize] = leaf as u32;
    }

    Ok(Structure {
        topo,
        rank,
        level_start,
        slot_of,
        n_src,
        net_driver,
        cell,
        out_net,
        fanin,
        fanin_off,
        fanin_slots,
        fanout,
        fanout_off,
        is_po: circuit
            .net_ids()
            .map(|n| circuit.net(n).is_output())
            .collect(),
        pos,
        po_leaf,
    })
}
