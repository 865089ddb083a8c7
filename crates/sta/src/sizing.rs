//! Per-gate sizing state of a netlist.

use pops_delay::Library;
use pops_netlist::{Circuit, GateId, NetlistError};

use crate::error::StaError;

/// Input capacitance assigned to every gate of a circuit (fF, per input
/// pin — the same sizing variable the path optimizers use).
///
/// # Example
///
/// ```
/// use pops_netlist::builders::inverter_chain;
/// use pops_delay::Library;
/// use pops_sta::Sizing;
///
/// let c = inverter_chain(3);
/// let lib = Library::cmos025();
/// let mut s = Sizing::minimum(&c, &lib);
/// let g0 = c.gate_ids().next().unwrap();
/// s.set(g0, 2.0 * lib.min_drive_ff());
/// assert!(s.cin_ff(g0) > lib.min_drive_ff());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sizing {
    cins: Vec<f64>,
}

impl Sizing {
    /// All gates at the library's minimum drive (the paper's `Tmax`
    /// configuration).
    pub fn minimum(circuit: &Circuit, lib: &Library) -> Self {
        Sizing {
            cins: vec![lib.min_drive_ff(); circuit.gate_count()],
        }
    }

    /// All gates at a uniform input capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `cin_ff` is not finite and positive.
    pub fn uniform(circuit: &Circuit, cin_ff: f64) -> Self {
        assert_valid_cin(cin_ff);
        Sizing {
            cins: vec![cin_ff; circuit.gate_count()],
        }
    }

    /// Input capacitance of a gate (fF).
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    pub fn cin_ff(&self, gate: GateId) -> f64 {
        self.cins[gate.index()]
    }

    /// Set the input capacitance of a gate (fF).
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range or `cin_ff` is not finite
    /// and positive.
    pub fn set(&mut self, gate: GateId, cin_ff: f64) {
        assert_valid_cin(cin_ff);
        self.cins[gate.index()] = cin_ff;
    }

    /// Set the input capacitance of a gate and return the previous
    /// value — one bounds-checked access for the compare-and-set
    /// pattern of resize batches and probe/revert sweeps.
    ///
    /// # Panics
    ///
    /// As [`Sizing::set`].
    pub fn replace(&mut self, gate: GateId, cin_ff: f64) -> f64 {
        assert_valid_cin(cin_ff);
        std::mem::replace(&mut self.cins[gate.index()], cin_ff)
    }

    /// Append the input capacitance of a freshly created gate (netlist
    /// surgery allocates gate ids densely at the end of the arena, so
    /// growing the sizing is a push per new gate).
    ///
    /// # Panics
    ///
    /// Panics if `cin_ff` is not finite and positive.
    pub fn push(&mut self, cin_ff: f64) {
        assert_valid_cin(cin_ff);
        self.cins.push(cin_ff);
    }

    /// Extend the sizing for a batch of freshly created gates, keyed by
    /// id. Netlist surgery allocates gate ids densely at the end of the
    /// arena, but an edit log may list one op's creations in any order;
    /// keying by id normalizes the order (entries are sorted and applied
    /// ascending), so each size lands at its own gate no matter how the
    /// log is traversed, where a positional `push` loop would silently
    /// mis-size gates. The whole batch is validated before any entry is
    /// applied, so a rejected log leaves the sizing untouched instead of
    /// aborting a long flow run mid-surgery.
    ///
    /// # Errors
    ///
    /// [`StaError::NonDenseSizing`] when the sorted ids do not extend
    /// `len()` contiguously (gapped, duplicated, or not starting at
    /// `len()`); [`StaError::InvalidDrive`] for a capacitance that is
    /// NaN, infinite, zero or negative.
    pub fn try_extend_dense(
        &mut self,
        new: impl IntoIterator<Item = (GateId, f64)>,
    ) -> Result<(), StaError> {
        let mut entries: Vec<(GateId, f64)> = new.into_iter().collect();
        entries.sort_by_key(|&(g, _)| g.index());
        for (i, &(g, cin_ff)) in entries.iter().enumerate() {
            let expected = self.cins.len() + i;
            if g.index() != expected {
                return Err(StaError::NonDenseSizing {
                    gate: g.index(),
                    expected,
                });
            }
            if !cin_ff.is_finite() || cin_ff <= 0.0 {
                return Err(StaError::InvalidDrive {
                    gate: g.index(),
                    cin_ff,
                });
            }
        }
        for (_, cin_ff) in entries {
            self.push(cin_ff);
        }
        Ok(())
    }

    /// The dense id-indexed capacitance array, for hot loops that
    /// stream it without per-gate bounds-checked calls.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.cins
    }

    /// Check that this sizing has exactly one entry per gate of
    /// `circuit`, as every timing entry point requires.
    pub(crate) fn check_covers(&self, circuit: &Circuit) -> Result<(), NetlistError> {
        if self.cins.len() == circuit.gate_count() {
            Ok(())
        } else {
            Err(NetlistError::InvalidId(format!(
                "sizing has {} entries for a circuit of {} gates",
                self.cins.len(),
                circuit.gate_count()
            )))
        }
    }

    /// Number of gates covered.
    pub fn len(&self) -> usize {
        self.cins.len()
    }

    /// True when the sizing covers no gates.
    pub fn is_empty(&self) -> bool {
        self.cins.is_empty()
    }

    /// Total input capacitance (fF) — the area/power proxy.
    pub fn total_cin_ff(&self) -> f64 {
        self.cins.iter().sum()
    }
}

fn assert_valid_cin(cin_ff: f64) {
    assert!(
        cin_ff.is_finite() && cin_ff > 0.0,
        "input capacitance must be finite and positive, got {cin_ff}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_netlist::builders::inverter_chain;

    #[test]
    fn minimum_sizing_uses_cref() {
        let c = inverter_chain(4);
        let lib = Library::cmos025();
        let s = Sizing::minimum(&c, &lib);
        assert_eq!(s.len(), 4);
        for g in c.gate_ids() {
            assert_eq!(s.cin_ff(g), lib.min_drive_ff());
        }
    }

    #[test]
    fn replace_returns_the_previous_size() {
        let c = inverter_chain(2);
        let lib = Library::cmos025();
        let mut s = Sizing::minimum(&c, &lib);
        let g = c.gate_ids().next().unwrap();
        assert_eq!(s.replace(g, 7.5), lib.min_drive_ff());
        assert_eq!(s.cin_ff(g), 7.5);
    }

    #[test]
    fn set_and_total() {
        let c = inverter_chain(2);
        let lib = Library::cmos025();
        let mut s = Sizing::minimum(&c, &lib);
        let g = c.gate_ids().next().unwrap();
        s.set(g, 10.0);
        assert_eq!(s.cin_ff(g), 10.0);
        assert!((s.total_cin_ff() - (10.0 + lib.min_drive_ff())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let c = inverter_chain(1);
        let lib = Library::cmos025();
        let mut s = Sizing::minimum(&c, &lib);
        s.set(c.gate_ids().next().unwrap(), 0.0);
    }

    #[test]
    fn infinite_sizes_are_rejected_by_every_setter() {
        // `try_resize_gates` rejects +inf as `InvalidDrive`; the plain
        // setters must not accept what the fallible boundary refuses.
        let c = inverter_chain(2);
        let lib = Library::cmos025();
        let g = c.gate_ids().next().unwrap();
        let inf = f64::INFINITY;
        let attempts: [&dyn Fn(); 4] = [
            &|| {
                let _ = Sizing::uniform(&c, inf);
            },
            &|| Sizing::minimum(&c, &lib).set(g, inf),
            &|| {
                let _ = Sizing::minimum(&c, &lib).replace(g, inf);
            },
            &|| Sizing::minimum(&c, &lib).push(inf),
        ];
        for (i, attempt) in attempts.iter().enumerate() {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
            assert!(result.is_err(), "setter {i} accepted +inf");
        }
    }
}
