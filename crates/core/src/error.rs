//! Optimization error types.

use std::error::Error;
use std::fmt;

/// Errors produced by the POPS optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The delay constraint is below the minimum achievable delay, even
    /// after the allowed structure modifications.
    Infeasible {
        /// Requested constraint (ps).
        tc_ps: f64,
        /// Best minimum delay achievable on the (possibly modified) path.
        tmin_ps: f64,
    },
    /// A delay constraint that is NaN, zero or negative: no sizing can
    /// meet it, and the solvers' ratios against it are meaningless.
    InvalidConstraint {
        /// The offending constraint (ps).
        tc_ps: f64,
    },
    /// An iterative solver failed to converge within its budget.
    NoConvergence {
        /// Which solver gave up.
        solver: &'static str,
        /// Iterations consumed.
        iterations: usize,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Infeasible { tc_ps, tmin_ps } => write!(
                f,
                "delay constraint {tc_ps:.1} ps is below the achievable minimum {tmin_ps:.1} ps"
            ),
            OptimizeError::InvalidConstraint { tc_ps } => {
                write!(f, "invalid delay constraint {tc_ps} ps: must be positive")
            }
            OptimizeError::NoConvergence { solver, iterations } => {
                write!(
                    f,
                    "{solver} failed to converge after {iterations} iterations"
                )
            }
        }
    }
}

impl Error for OptimizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_numbers() {
        let e = OptimizeError::Infeasible {
            tc_ps: 100.0,
            tmin_ps: 150.0,
        };
        let s = e.to_string();
        assert!(s.contains("100.0"));
        assert!(s.contains("150.0"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(OptimizeError::NoConvergence {
            solver: "tmin",
            iterations: 42,
        });
        assert!(e.to_string().contains("tmin"));
    }
}
