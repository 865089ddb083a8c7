//! Industrial-style iterative sizing baseline ("AMPS" substitute).
//!
//! The paper benchmarks POPS against AMPS, Synopsys' transistor-sizing
//! tool, reporting that the deterministic method (a) reaches a slightly
//! better minimum delay, (b) needs less area under hard constraints, and
//! (c) runs about two orders of magnitude faster (Table 1). AMPS is
//! proprietary; this crate provides the class of optimizer it represents:
//!
//! * [`greedy`] — TILOS-style iterative sensitivity sizing: repeatedly
//!   bump the size of the gate with the best delay-gain/area-cost ratio
//!   until the constraint is met;
//! * [`random`] — the "pseudo-random sizing technique" the paper mentions
//!   for minimum-delay search.
//!
//! Both work on the same bounded [`pops_delay::TimedPath`]
//! abstraction as the POPS optimizers, so comparisons are apples to
//! apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod random;

pub use greedy::{greedy_min_delay, greedy_size_for_constraint, GreedyOptions, GreedyResult};
pub use random::{random_min_delay, RandomSearchOptions};
