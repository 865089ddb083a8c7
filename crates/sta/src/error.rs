//! Typed errors for the incremental timing engine's mutation boundary.
//!
//! The [`TimingGraph`](crate::TimingGraph) mutators that take caller
//! values — resizes, Vt swaps and constraints — have fallible `try_*`
//! variants returning [`StaError`]: inputs that would poison the corner
//! slabs (NaN drives, NaN or negative constraints) or index out of range
//! are rejected *before* any state changes, so a malformed batch can never
//! leave the graph half-mutated. The infallible forms route through the
//! `try_*` variants and panic with the error's `Display` text — the
//! remaining panics mark programmer error, not data-dependent failure.
//! [`TimingGraph::apply_edits`](crate::TimingGraph::apply_edits) returns
//! its [`NetlistError`] directly; `From` wraps it as
//! [`StaError::InvalidEdit`].

use std::error::Error;
use std::fmt;

use pops_netlist::NetlistError;

/// Errors produced at the timing engine's validated mutation boundary and
/// by the [`verify_state`](crate::TimingGraph::verify_state) auditor.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// A gate drive (input capacitance) that is NaN, infinite, zero or
    /// negative — values the delay model cannot evaluate and the bitwise
    /// convergence cuts cannot wash out.
    InvalidDrive {
        /// Gate index the drive was destined for.
        gate: usize,
        /// The offending capacitance (fF).
        cin_ff: f64,
    },
    /// A gate id outside the graph's gate range.
    GateOutOfRange {
        /// The offending gate index.
        gate: usize,
        /// Number of gates in the graph.
        n_gates: usize,
    },
    /// A timing constraint the backward state cannot hold: NaN or
    /// negative (including `-inf`). `+inf` is accepted — it is the
    /// documented "nothing is critical" constraint.
    InvalidConstraint {
        /// The offending constraint (ps).
        tc_ps: f64,
    },
    /// A sizing log entry that does not extend the dense gate-indexed
    /// sizing vector contiguously.
    NonDenseSizing {
        /// Gate index carried by the log entry.
        gate: usize,
        /// The next index a dense extension must supply.
        expected: usize,
    },
    /// A structural edit plan rejected by validation or application.
    InvalidEdit(NetlistError),
    /// The deep-consistency audit found internal state that violates an
    /// invariant (slot bijection, level monotonicity, flush
    /// bookkeeping, critical-output-tree agreement or the finiteness
    /// policy).
    StateCorrupt {
        /// Which invariant failed, with the offending values.
        detail: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::InvalidDrive { gate, cin_ff } => {
                write!(
                    f,
                    "invalid drive for gate {gate}: cin {cin_ff} fF must be finite and positive"
                )
            }
            StaError::GateOutOfRange { gate, n_gates } => {
                write!(f, "gate {gate} out of range for a {n_gates}-gate graph")
            }
            StaError::InvalidConstraint { tc_ps } => {
                write!(
                    f,
                    "invalid constraint {tc_ps} ps: must be non-negative and not NaN"
                )
            }
            StaError::NonDenseSizing { gate, expected } => {
                write!(
                    f,
                    "sizing log entry for gate {gate} does not extend the sizing densely \
                     (expected gate {expected} next)"
                )
            }
            StaError::InvalidEdit(e) => write!(f, "invalid edit plan: {e}"),
            StaError::StateCorrupt { detail } => {
                write!(f, "timing state corrupt: {detail}")
            }
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::InvalidEdit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        StaError::InvalidEdit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_value() {
        let e = StaError::InvalidDrive {
            gate: 7,
            cin_ff: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("gate 7"), "{s}");
        assert!(s.contains("NaN"), "{s}");

        let e = StaError::InvalidConstraint {
            tc_ps: f64::NEG_INFINITY,
        };
        assert!(e.to_string().contains("-inf"), "{e}");

        let e = StaError::GateOutOfRange {
            gate: 99,
            n_gates: 10,
        };
        assert!(e.to_string().contains("99"), "{e}");
        assert!(e.to_string().contains("10"), "{e}");
    }

    #[test]
    fn netlist_errors_convert_and_chain() {
        let e: StaError = NetlistError::InvalidId("gate 3".into()).into();
        assert!(matches!(e, StaError::InvalidEdit(_)));
        assert!(e.source().is_some());
    }
}
