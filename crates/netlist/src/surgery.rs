//! Batched netlist surgery: [`EditPlan`]s over [`Circuit`]s.
//!
//! The optimization flow decides *what* to restructure (buffer an
//! over-limit net, De Morgan a weak NOR) long before it is safe to
//! mutate anything — candidates come from path analysis over an
//! immutable timing view. An [`EditPlan`] captures those decisions as
//! data: a list of [`EditOp`]s referencing existing [`NetId`]s /
//! [`GateId`]s, applied later in one shot by [`EditPlan::apply_to`] (or
//! by `TimingGraph::apply_edits`, which additionally resets its timing
//! state over the edited circuit).
//!
//! Every op maps onto one of the [`Circuit`] surgery primitives and is
//! validated before it mutates; the returned [`AppliedEdit`] log names
//! the gates each op created, with their planned sizes — what a timing
//! engine needs to extend its per-gate state.
//!
//! Ids are append-only: no op ever invalidates an existing `GateId` or
//! `NetId`, so ops within one plan may reference the same base ids.
//! Application order is the plan order; planners that mix buffer and
//! De Morgan ops should emit the buffer ops first (a De Morgan rewires
//! its gate's input pins, which would invalidate a later buffer op's
//! recorded `(gate, pin)` list).

use crate::circuit::{Circuit, GateId, NetId};
use crate::error::NetlistError;

/// One structural edit, in netlist terms.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Insert an Inv→Inv buffer pair after `net`, re-homing the listed
    /// load pins onto the pair's output ([`Circuit::insert_buffer`]).
    InsertBuffer {
        /// The over-limit net to relieve.
        net: NetId,
        /// Load pins to move behind the buffer.
        loads: Vec<(GateId, usize)>,
        /// Input capacitance for the two inverters (fF): `[first,
        /// second]` — the first loads the relieved net, the second
        /// drives the moved pins.
        stage_cin_ff: [f64; 2],
    },
    /// Rewrite a NAND/NOR into its De Morgan dual plus inverters,
    /// preserving the logic function ([`Circuit::demorgan_gate`]).
    DeMorgan {
        /// The gate to dualize.
        gate: GateId,
        /// Input capacitance for every created inverter (fF).
        inv_cin_ff: f64,
    },
}

/// An ordered batch of structural edits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EditPlan {
    ops: Vec<EditOp>,
}

/// What one applied [`EditOp`] did to the circuit: the gates it
/// created, with suggested sizes. Consumed by timing engines to extend
/// their per-gate state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppliedEdit {
    /// Gates created by this op, in id order.
    pub new_gates: Vec<GateId>,
    /// Suggested input capacitance per created gate (fF), parallel to
    /// `new_gates`.
    pub new_gate_cin_ff: Vec<f64>,
}

impl EditPlan {
    /// An empty plan.
    pub fn new() -> Self {
        EditPlan::default()
    }

    /// Append an op.
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// Append every op of `other`.
    pub fn extend(&mut self, other: EditPlan) {
        self.ops.extend(other.ops);
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply every op to `circuit`, in order, and return one
    /// [`AppliedEdit`] per op.
    ///
    /// # Errors
    ///
    /// The first failing op's error. Ops preceding it remain applied
    /// (each op is individually atomic: it validates before mutating);
    /// callers needing all-or-nothing semantics should apply to a clone.
    pub fn apply_to(&self, circuit: &mut Circuit) -> Result<Vec<AppliedEdit>, NetlistError> {
        let mut applied = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            applied.push(op.apply_to(circuit)?);
        }
        Ok(applied)
    }

    /// Cheap whole-plan screening against `circuit` *before* anything
    /// is applied: every referenced gate and net id must be in range,
    /// and every capacitance a created gate would enter at must be
    /// finite and positive (a NaN or non-positive drive would poison
    /// downstream timing state where convergence cuts never fire).
    /// Purely id-range and value checks — per-op structural
    /// preconditions (pin arities, cell kinds, drive conflicts) are
    /// still validated by each op at application time, since they can
    /// depend on the ops applied before it.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidId`] naming the out-of-range id;
    /// [`NetlistError::UnsupportedEdit`] naming the offending
    /// capacitance value.
    pub fn validate(&self, circuit: &Circuit) -> Result<(), NetlistError> {
        let n_gates = circuit.gate_count();
        let n_nets = circuit.net_count();
        let check_gate = |gate: GateId| {
            if gate.index() >= n_gates {
                Err(NetlistError::InvalidId(format!(
                    "gate {} out of range for a {n_gates}-gate circuit",
                    gate.index()
                )))
            } else {
                Ok(())
            }
        };
        let check_net = |net: NetId| {
            if net.index() >= n_nets {
                Err(NetlistError::InvalidId(format!(
                    "net {} out of range for a {n_nets}-net circuit",
                    net.index()
                )))
            } else {
                Ok(())
            }
        };
        let check_cin = |cin_ff: f64| {
            if !cin_ff.is_finite() || cin_ff <= 0.0 {
                Err(NetlistError::UnsupportedEdit(format!(
                    "created gate capacitance {cin_ff} fF must be finite and positive"
                )))
            } else {
                Ok(())
            }
        };
        for op in &self.ops {
            match op {
                EditOp::InsertBuffer {
                    net,
                    loads,
                    stage_cin_ff,
                } => {
                    check_net(*net)?;
                    for &(gate, _) in loads {
                        check_gate(gate)?;
                    }
                    for &cin in stage_cin_ff {
                        check_cin(cin)?;
                    }
                }
                EditOp::DeMorgan { gate, inv_cin_ff } => {
                    check_gate(*gate)?;
                    check_cin(*inv_cin_ff)?;
                }
            }
        }
        Ok(())
    }
}

impl From<Vec<EditOp>> for EditPlan {
    fn from(ops: Vec<EditOp>) -> Self {
        EditPlan { ops }
    }
}

impl EditOp {
    /// Apply this single op to `circuit`.
    ///
    /// # Errors
    ///
    /// As the underlying [`Circuit`] surgery primitive.
    pub fn apply_to(&self, circuit: &mut Circuit) -> Result<AppliedEdit, NetlistError> {
        match self {
            EditOp::InsertBuffer {
                net,
                loads,
                stage_cin_ff,
            } => {
                let ins = circuit.insert_buffer(*net, loads)?;
                Ok(AppliedEdit {
                    new_gates: vec![ins.first, ins.second],
                    new_gate_cin_ff: stage_cin_ff.to_vec(),
                })
            }
            EditOp::DeMorgan { gate, inv_cin_ff } => {
                let edit = circuit.demorgan_gate(*gate)?;
                let mut new_gates = edit.input_invs;
                new_gates.push(edit.output_inv);
                Ok(AppliedEdit {
                    new_gate_cin_ff: vec![*inv_cin_ff; new_gates.len()],
                    new_gates,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn nor_into_fanout() -> (Circuit, GateId, NetId, Vec<GateId>) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate(CellKind::Nor2, &[a, b], "y").unwrap();
        let g = c.driver_gate(y).unwrap();
        let mut sinks = Vec::new();
        for i in 0..3 {
            let s = c.add_gate(CellKind::Inv, &[y], format!("s{i}")).unwrap();
            sinks.push(c.driver_gate(s).unwrap());
            c.mark_output(s);
        }
        (c, g, y, sinks)
    }

    #[test]
    fn plan_applies_ops_in_order_and_logs_ids() {
        let (mut c, g, y, sinks) = nor_into_fanout();
        let gates_before = c.gate_count();
        let mut plan = EditPlan::new();
        plan.push(EditOp::InsertBuffer {
            net: y,
            loads: vec![(sinks[1], 0), (sinks[2], 0)],
            stage_cin_ff: [1.0, 4.0],
        });
        plan.push(EditOp::DeMorgan {
            gate: g,
            inv_cin_ff: 1.0,
        });
        let applied = plan.apply_to(&mut c).unwrap();
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].new_gates.len(), 2);
        assert_eq!(applied[0].new_gate_cin_ff, vec![1.0, 4.0]);
        assert_eq!(applied[1].new_gates.len(), 3); // 2 input invs + output inv
                                                   // New ids are dense and append-only.
        let all_new: Vec<usize> = applied
            .iter()
            .flat_map(|a| a.new_gates.iter().map(|g| g.index()))
            .collect();
        assert_eq!(
            all_new,
            (gates_before..gates_before + 5).collect::<Vec<_>>()
        );
        c.validate().unwrap();
    }

    #[test]
    fn buffer_then_demorgan_preserves_all_outputs() {
        let (mut c, g, y, sinks) = nor_into_fanout();
        let reference = c.clone();
        let plan: EditPlan = vec![
            EditOp::InsertBuffer {
                net: y,
                loads: vec![(sinks[0], 0)],
                stage_cin_ff: [1.0, 1.0],
            },
            EditOp::DeMorgan {
                gate: g,
                inv_cin_ff: 1.0,
            },
        ]
        .into();
        plan.apply_to(&mut c).unwrap();
        for pattern in 0..4u32 {
            let values = [("a", pattern & 1 == 1), ("b", pattern & 2 == 2)]
                .into_iter()
                .collect();
            assert_eq!(
                reference.evaluate(&values).unwrap(),
                c.evaluate(&values).unwrap(),
                "pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn failing_op_reports_its_error() {
        let (mut c, _, y, sinks) = nor_into_fanout();
        let plan: EditPlan = vec![EditOp::InsertBuffer {
            net: y,
            loads: vec![(sinks[0], 3)],
            stage_cin_ff: [1.0, 1.0],
        }]
        .into();
        assert!(matches!(
            plan.apply_to(&mut c),
            Err(NetlistError::UnsupportedEdit(_))
        ));
    }
}
