//! Error types for netlist construction, validation and parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// An operator name / arity combination not present in the library.
    UnknownCell {
        /// Operator as written (e.g. `"MAJ"`).
        op: String,
        /// Number of operands supplied.
        arity: usize,
    },
    /// A gate was declared with the wrong number of inputs for its cell.
    ArityMismatch {
        /// The cell kind involved.
        cell: String,
        /// Inputs the cell expects.
        expected: usize,
        /// Inputs actually supplied.
        got: usize,
    },
    /// A net name was referenced before being declared.
    UndefinedNet(String),
    /// Two drivers were attached to the same net.
    MultipleDrivers(String),
    /// A net name was declared twice.
    DuplicateNet(String),
    /// The combinational graph contains a cycle.
    CombinationalCycle,
    /// Syntax error while parsing a `.bench` file.
    BenchSyntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An evaluation was requested with a missing primary-input value.
    MissingInputValue(String),
    /// A referenced id is out of range for this circuit.
    InvalidId(String),
    /// A netlist surgery operation is not applicable to its target
    /// (e.g. De Morgan on a cell without a series-stack dual, or a
    /// buffer insertion naming a pin that does not load the net).
    UnsupportedEdit(String),
    /// A numeric parameter outside its domain (e.g. a timing option
    /// that is NaN, infinite or negative).
    InvalidParameter(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownCell { op, arity } => {
                write!(f, "unknown cell `{op}` with {arity} inputs")
            }
            NetlistError::ArityMismatch {
                cell,
                expected,
                got,
            } => {
                write!(f, "cell {cell} expects {expected} inputs, got {got}")
            }
            NetlistError::UndefinedNet(name) => write!(f, "undefined net `{name}`"),
            NetlistError::MultipleDrivers(name) => {
                write!(f, "net `{name}` has more than one driver")
            }
            NetlistError::DuplicateNet(name) => write!(f, "net `{name}` declared twice"),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::BenchSyntax { line, message } => {
                write!(f, "bench syntax error at line {line}: {message}")
            }
            NetlistError::MissingInputValue(name) => {
                write!(f, "no value provided for primary input `{name}`")
            }
            NetlistError::InvalidId(what) => write!(f, "invalid id: {what}"),
            NetlistError::UnsupportedEdit(what) => write!(f, "unsupported edit: {what}"),
            NetlistError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples: Vec<NetlistError> = vec![
            NetlistError::UnknownCell {
                op: "MAJ".into(),
                arity: 3,
            },
            NetlistError::ArityMismatch {
                cell: "NAND2".into(),
                expected: 2,
                got: 3,
            },
            NetlistError::UndefinedNet("x".into()),
            NetlistError::MultipleDrivers("x".into()),
            NetlistError::DuplicateNet("x".into()),
            NetlistError::CombinationalCycle,
            NetlistError::BenchSyntax {
                line: 3,
                message: "bad token".into(),
            },
            NetlistError::MissingInputValue("a".into()),
            NetlistError::InvalidId("gate 42".into()),
            NetlistError::InvalidParameter("po_load_ff = NaN".into()),
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
        }
    }
}
