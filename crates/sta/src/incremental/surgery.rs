//! Structural edits on a [`TimingGraph`]: apply a plan, rebuild the
//! structure, then remap and seed the timing state.

use pops_netlist::surgery::{AppliedEdit, EditPlan};
use pops_netlist::{GateId, NetlistError, VtClass};

use super::{build_structure, TimingGraph};
use crate::dirty::DirtySet;
use crate::kernel::build_gate_params;

impl TimingGraph<'_> {
    /// Apply a batch of structural edits — buffer insertions and De
    /// Morgan rewrites — to the circuit *and* patch the timing state
    /// around them, instead of rebuilding from scratch.
    ///
    /// On the first call the graph clones the borrowed circuit into an
    /// owned copy (the caller's original netlist is never mutated);
    /// from then on [`TimingGraph::circuit`] is the authoritative,
    /// edited netlist. The graph then
    ///
    /// 1. applies the plan through the
    ///    [`Circuit`](pops_netlist::Circuit) surgery primitives
    ///    (append-only: every pre-existing id stays valid),
    /// 2. rebuilds its structural arrays — topological ranks, flattened
    ///    adjacency, per-gate model constants — pure arena work with no
    ///    arc evaluations,
    /// 3. extends the per-gate/per-net timing state for the created ids
    ///    (new gates enter at their planned sizes, clamped to the
    ///    library minimum; new nets start unreached),
    /// 4. seeds the forward and backward dirty cones from the edit log:
    ///    every net whose load moved re-times its driver, every gate
    ///    whose cell/wiring changed re-evaluates, new gates evaluate for
    ///    the first time — and the usual bitwise-convergence propagation
    ///    confines the floating-point work to the affected cones.
    ///
    /// After the call every queryable value — arrivals, slopes, loads,
    /// required times, slacks — is **bit-identical** to a from-scratch
    /// [`TimingGraph`] built on the edited circuit under the same
    /// sizing, options and constraint (`tests/surgery_equivalence.rs`
    /// asserts this after every edit of random surgery/resize mixes).
    ///
    /// Returns the per-op [`AppliedEdit`] log (created gate/net ids).
    ///
    /// # Errors
    ///
    /// A malformed plan — out-of-range ids, non-finite or non-positive
    /// stage capacitances — is rejected by [`EditPlan::validate`]
    /// *before* anything is applied, so it cannot abort a long flow run
    /// or leave the graph half-edited. Past validation, the first
    /// failing op's [`NetlistError`] propagates; ops before it stay
    /// applied — the graph re-synchronizes its state to the partially
    /// edited circuit before returning, so it remains consistent and
    /// usable even on error.
    pub fn apply_edits(&mut self, plan: &EditPlan) -> Result<Vec<AppliedEdit>, NetlistError> {
        if plan.is_empty() {
            return Ok(Vec::new());
        }
        plan.validate(self.circuit.as_ref())?;
        let mut applied = Vec::with_capacity(plan.len());
        let mut first_err = None;
        {
            let circuit = self.circuit.to_mut();
            for op in plan.ops() {
                match op.apply_to(circuit) {
                    Ok(a) => applied.push(a),
                    Err(e) => {
                        // Resync to the applied prefix below so the
                        // graph stays consistent with its circuit.
                        first_err = Some(e);
                        break;
                    }
                }
            }
        }
        self.resync_after_surgery(&applied)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Rebuild structure, extend state and seed the lazy re-time after
    /// the circuit was surgically edited. `applied` carries the created
    /// ids and suggested sizes; conservative seeding beyond it (the
    /// flush-time load-change scan over all nets) covers any edit the
    /// log understates. No arc is evaluated here — the whole cone
    /// re-time is deferred to the first timing query.
    fn resync_after_surgery(&mut self, applied: &[AppliedEdit]) -> Result<(), NetlistError> {
        // Surgery re-levels and re-ranks arbitrarily, and the slabs are
        // keyed by slot/position — keep the old structure's keys to
        // permute the surviving state into the new layout below.
        let old = std::mem::replace(&mut self.s, build_structure(self.circuit.as_ref())?);
        let n_gates = self.s.topo.len();
        let nc = self.corner_libs.len();
        // Created gates enter in the default Vt variant; surviving
        // gates keep theirs (ids are stable across append-only
        // surgery, so no remap is needed). The constants rebuild
        // wholesale — pure arithmetic over the corner libraries, no
        // arc evaluations.
        self.vt_class.resize(n_gates, VtClass::Svt);
        self.gate_params =
            build_gate_params(self.circuit.as_ref(), &self.corner_libs, &self.vt_class);

        // Per-gate / per-net timing state: existing entries keep their
        // values (they are still bit-correct wherever the edits did not
        // reach) — permuted into the new slot/rank layout — and new ids
        // get neutral initial state. Pending lazy seeds live in the
        // id-keyed logs, which survive append-only surgery untouched.
        {
            let fwd = self.fwd.get_mut();
            debug_assert!(fwd.dirty.is_empty(), "surgery over a drained queue");
            fwd.arrival = remap_slots(
                &fwd.arrival,
                &old.slot_of,
                &self.s.slot_of,
                [f64::NEG_INFINITY; 2],
                nc,
            );
            fwd.slope = remap_slots(&fwd.slope, &old.slot_of, &self.s.slot_of, [0.0; 2], nc);
            fwd.pred = remap_slots(&fwd.pred, &old.slot_of, &self.s.slot_of, [None, None], nc);
            fwd.load = remap_slots(&fwd.load, &old.slot_of, &self.s.slot_of, 0.0, 1);
            fwd.gate_delay_worst =
                remap_ranks(&fwd.gate_delay_worst, &old.rank, &self.s.rank, 0.0, nc);
            fwd.dirty = DirtySet::new(n_gates);
            // Load deltas are detected lazily: the cached loads are
            // still the pre-edit values, so the flush recompares every
            // net under the edited structure and seeds the drivers of
            // the ones that moved (forward *and* backward).
            fwd.scan_loads = true;
        }
        // Extend the sizing for the created gates, keyed by id — the
        // edit log lists each op's gates in creation order, but keying
        // (instead of trusting the traversal order) pins every size to
        // its gate regardless of log order, and makes a gapped or
        // duplicated id set a typed error rather than mis-sized gates.
        let min_drive = self.lib.min_drive_ff();
        self.sizing
            .try_extend_dense(applied.iter().flat_map(|edit| {
                edit.new_gates
                    .iter()
                    .zip(&edit.new_gate_cin_ff)
                    .map(|(&g, &cin)| (g, cin.max(min_drive)))
            }))
            .map_err(|e| NetlistError::InvalidId(e.to_string()))?;
        assert_eq!(self.sizing.len(), n_gates, "one size per gate");
        if let Some(bw) = self.backward.get_mut().as_mut() {
            bw.required = remap_slots(
                &bw.required,
                &old.slot_of,
                &self.s.slot_of,
                [f64::INFINITY; 2],
                nc,
            );
            // Marks cannot follow a re-ranking, but outside a flush a
            // dirty set is only ever empty or — after a constraint
            // change — full: re-invalidate under the new ranks.
            for (set, size) in [(&mut bw.req, n_gates), (&mut bw.req_src, self.s.n_src)] {
                let invalidated = !set.is_empty();
                *set = DirtySet::new(size);
                if invalidated {
                    set.fill();
                }
            }
            // The edit moved loads/drivers arbitrarily: refold the
            // worst-slack index wholesale at the next flush (its leaf
            // space just grew, and the O(nets) refold is noise next to
            // this rebuild's own O(V+E)).
            bw.refold_all = true;
        }

        // Seed the connectivity deltas from the edit log: nets whose
        // fanout set or driver changed, gates whose cell/wiring changed
        // and every created gate. (Load deltas are the flush-time scan
        // scheduled above.) Over-seeding is safe (the bitwise
        // convergence cut discards no-op re-evaluations); the goal is
        // only to never under-seed.
        for edit in applied {
            for &net in edit.touched_nets.iter().chain(&edit.new_nets) {
                if let Some(bw) = self.backward.get_mut() {
                    bw.req_net_log.push(net);
                }
                if let Some(driver) = self.s.net_driver[net.index()] {
                    self.seed_edited_gate(driver);
                }
                let (lo, hi) = (
                    self.s.fanout_off[net.index()] as usize,
                    self.s.fanout_off[net.index() + 1] as usize,
                );
                for i in lo..hi {
                    let g = self.s.fanout[i];
                    self.seed_edited_gate(g);
                }
            }
            for &g in edit.touched_gates.iter().chain(&edit.new_gates) {
                self.seed_edited_gate(g);
            }
        }

        self.gen = self.gen.wrapping_add(1);
        self.stat(|s| {
            s.updates += 1;
            s.structural_edits += applied.len();
        });
        Ok(())
    }

    /// Log one gate whose cell, wiring, drive or environment a
    /// structural edit may have changed: re-evaluate it forward at the
    /// next flush, and re-derive its fanin required times at the next
    /// backward flush (the resized-log expansion covers the fanins).
    fn seed_edited_gate(&mut self, g: GateId) {
        self.fwd.get_mut().gate_log.push(g);
        if let Some(bw) = self.backward.get_mut().as_mut() {
            bw.resized_log.push(g);
        }
    }
}

/// Permute a slot-indexed slab into a new slot layout after surgery:
/// net ids are stable across append-only edits, so each surviving net
/// carries its value from its old slot to its new one; created ids
/// (slots no old net maps to) get `default`. `stride` is the per-slot
/// entry count (the corner count for the per-corner slabs, 1 for the
/// corner-invariant ones); a slot's corner lanes move together.
fn remap_slots<T: Copy>(
    old: &[T],
    old_slot_of: &[u32],
    new_slot_of: &[u32],
    default: T,
    stride: usize,
) -> Vec<T> {
    let mut out = vec![default; new_slot_of.len() * stride];
    for net in 0..old_slot_of.len() {
        let o = old_slot_of[net] as usize * stride;
        let n = new_slot_of[net] as usize * stride;
        out[n..n + stride].copy_from_slice(&old[o..o + stride]);
    }
    out
}

/// Permute a position-indexed (rank-major) slab into a new rank layout
/// after surgery, as [`remap_slots`] but keyed by gate id.
fn remap_ranks<T: Copy>(
    old: &[T],
    old_rank: &[u32],
    new_rank: &[u32],
    default: T,
    stride: usize,
) -> Vec<T> {
    let mut out = vec![default; new_rank.len() * stride];
    for g in 0..old_rank.len() {
        let o = old_rank[g] as usize * stride;
        let n = new_rank[g] as usize * stride;
        out[n..n + stride].copy_from_slice(&old[o..o + stride]);
    }
    out
}
