//! [`TimingGraph::verify_state`], the deep-consistency audit.

use super::TimingGraph;
use crate::error::StaError;

impl TimingGraph<'_> {
    /// Deep-consistency audit of the engine's internal state — a cheap
    /// health check for long-lived processes and the oracle the
    /// mutation-boundary tests consult. Pending marks are flushed
    /// first (the invariants hold over settled state); the audit then
    /// checks, in order:
    ///
    /// * **slot/rank bijection** — driverless nets occupy slots
    ///   `0..n_src` in net-id order, the net driven by the gate at topo
    ///   position `p` occupies slot `n_src + p`, and `rank` inverts the
    ///   topo order;
    /// * **level monotonicity** — `level_start` partitions the topo
    ///   positions and every gate's fanin drivers sit in strictly lower
    ///   levels;
    /// * **flush agreement** — the forward dirty set's popcount matches
    ///   its maintained count and no mark is left, and the backward
    ///   state was swept at the current mutation generation, over every
    ///   slot and corner;
    /// * **critical-output tree agreement** — on every corner, every
    ///   leaf bit-matches its primary output's arrivals and every
    ///   internal node (the root included) the min of its children;
    /// * **per-corner finiteness policy** — loads finite and
    ///   non-negative, slopes finite, arrivals `-inf` or finite,
    ///   required times `+inf` or finite; NaN nowhere.
    ///
    /// # Errors
    ///
    /// [`StaError::StateCorrupt`] naming the first violated invariant
    /// and the offending values.
    pub fn verify_state(&self) -> Result<(), StaError> {
        self.flush_forward();
        self.flush_required();
        let corrupt = |detail: String| Err(StaError::StateCorrupt { detail });

        let n_nets = self.s.slot_of.len();
        let n_gates = self.s.topo.len();
        let nc = self.corner_libs.len();

        // Slot/rank bijection.
        let mut slot_seen = vec![false; n_nets];
        let mut next_src = 0usize;
        for net in 0..n_nets {
            let slot = self.s.slot_of[net] as usize;
            if slot >= n_nets {
                return corrupt(format!(
                    "net {net}: slot {slot} out of range ({n_nets} nets)"
                ));
            }
            if slot_seen[slot] {
                return corrupt(format!("net {net}: slot {slot} assigned twice"));
            }
            slot_seen[slot] = true;
            match self.s.net_driver[net] {
                None => {
                    if slot != next_src {
                        return corrupt(format!(
                            "driverless net {net} at slot {slot}, expected source slot {next_src}"
                        ));
                    }
                    next_src += 1;
                }
                Some(driver) => {
                    let pos = self.s.rank[driver.index()] as usize;
                    if slot != self.s.n_src + pos {
                        return corrupt(format!(
                            "net {net} driven by topo position {pos} occupies slot {slot}, \
                             expected {}",
                            self.s.n_src + pos
                        ));
                    }
                }
            }
        }
        if next_src != self.s.n_src {
            return corrupt(format!(
                "{next_src} driverless nets but n_src = {}",
                self.s.n_src
            ));
        }
        for (pos, &gate) in self.s.topo.iter().enumerate() {
            if self.s.rank[gate.index()] as usize != pos {
                return corrupt(format!(
                    "rank[{}] = {} does not invert topo position {pos}",
                    gate.index(),
                    self.s.rank[gate.index()]
                ));
            }
        }

        // Level monotonicity.
        if self.s.level_start.first() != Some(&0)
            || self.s.level_start.last() != Some(&(n_gates as u32))
            || self.s.level_start.windows(2).any(|w| w[0] >= w[1])
        {
            return corrupt(format!(
                "level_start {:?} is not a strictly increasing partition of {n_gates} positions",
                self.s.level_start
            ));
        }
        for pos in 0..n_gates {
            let gate = self.s.topo[pos];
            let level = self.level_of(pos as u32);
            let (lo, hi) = (
                self.s.fanin_off[gate.index()] as usize,
                self.s.fanin_off[gate.index() + 1] as usize,
            );
            for &in_net in &self.s.fanin[lo..hi] {
                if let Some(driver) = self.s.net_driver[in_net.index()] {
                    let dpos = self.s.rank[driver.index()] as usize;
                    if dpos >= pos || self.level_of(dpos as u32) >= level {
                        return corrupt(format!(
                            "gate at position {pos} (level {level}) has a fanin driver at \
                             position {dpos} (level {}) — not strictly lower",
                            self.level_of(dpos as u32)
                        ));
                    }
                }
            }
        }

        let fwd = self.fwd.borrow();

        // Critical-output trees: per corner, leaves against the output
        // arrivals, internal nodes against their children.
        for (c, tree) in fwd.critical.iter().enumerate() {
            if let Err(detail) = tree.audit_against(&self.critical_keys(&fwd, c)) {
                return corrupt(format!("critical-output tree, corner {c}: {detail}"));
            }
        }

        // Dirty bookkeeping vs generation agreement. The flushes above
        // settled everything to the current generation, so every mark
        // must now be clear.
        if let Err(e) = fwd.dirty.check_count() {
            return corrupt(format!("forward dirty set: {e}"));
        }
        if !fwd.dirty.is_empty() {
            return corrupt(format!(
                "flushed forward state still dirty: {} marks",
                fwd.dirty.count()
            ));
        }

        // Forward finiteness policy.
        for (slot, &load) in fwd.load.iter().enumerate() {
            if !load.is_finite() || load < 0.0 {
                return corrupt(format!(
                    "load at slot {slot} is {load} (finite ≥ 0 required)"
                ));
            }
        }
        for (i, a) in fwd.arrival.iter().enumerate() {
            for &v in a {
                if v.is_nan() || v == f64::INFINITY {
                    return corrupt(format!(
                        "arrival at slot {}/corner {} is {v} (-inf or finite required)",
                        i / nc,
                        i % nc
                    ));
                }
            }
        }
        for (i, s) in fwd.slope.iter().enumerate() {
            for &v in s {
                if !v.is_finite() {
                    return corrupt(format!(
                        "slope at slot {}/corner {} is {v} (finite required)",
                        i / nc,
                        i % nc
                    ));
                }
            }
        }

        let guard = self.backward.borrow();
        if let Some(bw) = guard.as_ref() {
            if bw.swept_gen != Some(self.gen) || bw.required.len() != fwd.arrival.len() {
                return corrupt(format!(
                    "backward state swept at generation {:?} over {} entries, after a flush at \
                     generation {} over {}",
                    bw.swept_gen,
                    bw.required.len(),
                    self.gen,
                    fwd.arrival.len()
                ));
            }

            // Backward finiteness policy.
            for (i, r) in bw.required.iter().enumerate() {
                for &v in r {
                    if v.is_nan() || v == f64::NEG_INFINITY {
                        return corrupt(format!(
                            "required at slot {}/corner {} is {v} (+inf or finite required)",
                            i / nc,
                            i % nc
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}
