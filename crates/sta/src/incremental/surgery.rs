//! Structural edits on a [`TimingGraph`]: apply a plan, rebuild the
//! structure, then reset the timing state.

use pops_netlist::surgery::{AppliedEdit, EditPlan};
use pops_netlist::{NetlistError, VtClass};

use super::flush::ForwardState;
use super::{build_structure, TimingGraph};
use crate::kernel::{build_gate_params, GateParams};

impl TimingGraph<'_> {
    /// Apply a batch of structural edits — buffer insertions and De
    /// Morgan rewrites — to the circuit and reset the timing state
    /// over the edited netlist.
    ///
    /// On the first call the graph clones the borrowed circuit into an
    /// owned copy (the caller's original netlist is never mutated);
    /// from then on [`TimingGraph::circuit`] is the authoritative,
    /// edited netlist. The graph then
    ///
    /// 1. applies the plan through the
    ///    [`Circuit`](pops_netlist::Circuit) surgery primitives
    ///    (append-only: every pre-existing id stays valid),
    /// 2. extends the sizing and the Vt classes for the created gates
    ///    (they enter at their planned sizes, clamped to the library
    ///    minimum, in the default [`VtClass::Svt`]),
    /// 3. rebuilds its structural arrays and per-gate model constants
    ///    with the constructor's code,
    /// 4. resets the timing state: every gate marked forward and the
    ///    mutation generation bumped, which leaves the backward state
    ///    (if a constraint is set) stale.
    ///
    /// No arc is evaluated here: the next forward query runs one full
    /// forward pass and the next backward query one full backward pass,
    /// so every queryable value — arrivals, slopes, loads, required
    /// times, slacks — is **bit-identical** to a from-scratch
    /// [`TimingGraph`] built on the edited circuit under the same
    /// sizing, options and constraint (`tests/surgery_equivalence.rs`
    /// asserts this after every edit of random surgery/resize mixes).
    ///
    /// Returns the per-op [`AppliedEdit`] log (created gate ids and
    /// their sizes).
    ///
    /// # Errors
    ///
    /// A malformed plan — out-of-range ids, non-finite or non-positive
    /// stage capacitances — is rejected by [`EditPlan::validate`]
    /// *before* anything is applied, so it cannot abort a long flow run
    /// or leave the graph half-edited. Past validation, the first
    /// failing op's [`NetlistError`] propagates; ops before it stay
    /// applied — the graph resets its state over the partially edited
    /// circuit before returning, so it remains consistent and usable
    /// even on error.
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
                        // Reset over the applied prefix below so the
                        // graph stays consistent with its circuit.
                        first_err = Some(e);
                        break;
                    }
                }
            }
        }
        self.reset_after_edits(&applied)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Rebuild structure and model constants over the edited circuit,
    /// extend the per-gate state for the gates `applied` created, and
    /// leave both timing directions to one full pass at the next query.
    fn reset_after_edits(&mut self, applied: &[AppliedEdit]) -> Result<(), NetlistError> {
        let circuit = self.circuit.as_ref();
        self.s = build_structure(circuit)?;
        let n_gates = circuit.gate_count();
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
        // Surviving gates keep their Vt variant (ids are stable across
        // append-only surgery).
        self.vt_class.resize(n_gates, VtClass::Svt);
        self.gate_params = build_gate_params(circuit, &self.corner_libs, &self.vt_class);
        self.delays_nonnegative = self.gate_params.iter().all(GateParams::delays_nonnegative);

        let mut fwd = ForwardState::new(&self.s, self.corner_libs.len());
        self.init_forward(&mut fwd);
        fwd.dirty.fill();
        *self.fwd.get_mut() = fwd;
        self.gen = self.gen.wrapping_add(1);
        self.stat(|s| {
            s.updates += 1;
            s.structural_edits += applied.len();
        });
        Ok(())
    }
}
