//! Static timing analysis over gate-level netlists.
//!
//! POPS (the paper's tool) "allows to consider a user specified limited
//! number of paths" (§2.1, refs. \[11\]–\[12\]): circuits are analyzed once,
//! the most critical paths are extracted, and optimization then operates
//! on those paths as bounded [`pops_delay::TimedPath`] objects. This crate
//! provides that front end:
//!
//! * [`analysis`] — dual-edge (rise/fall) block-based STA with slope
//!   propagation under the eqs. (1)–(3) model,
//! * [`incremental`] — the same timing state maintained incrementally:
//!   gate resizes re-propagate only their dirty fanout cone, in one
//!   sequential rank-ordered flush per direction (the sizing loop's hot
//!   path),
//! * [`kpaths`] — the K most critical paths (ref. \[11\]),
//! * [`extract`] — turning a netlist path into a bounded `TimedPath`
//!   including the off-path loading every on-path gate sees.
//!
//! # Example
//!
//! ```
//! use pops_netlist::builders::ripple_carry_adder;
//! use pops_delay::Library;
//! use pops_sta::{analysis::analyze, Sizing};
//!
//! # fn main() -> Result<(), pops_netlist::NetlistError> {
//! let adder = ripple_carry_adder(8);
//! let lib = Library::cmos025();
//! let sizing = Sizing::minimum(&adder, &lib);
//! let report = analyze(&adder, &lib, &sizing)?;
//! assert!(report.critical_delay_ps() > 0.0);
//! let path = report.critical_path();
//! assert!(!path.gates.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod dirty;
pub mod error;
pub mod extract;
pub mod incremental;
mod kernel;
pub mod kpaths;
pub mod sizing;
pub mod slack;

pub use analysis::{analyze, NetlistPath, TimingReport, TimingView};
pub use error::StaError;
pub use extract::{extract_timed_path, ExtractOptions};
pub use incremental::TimingGraph;
pub use kpaths::{completion_bounds, k_most_critical_paths, path_weight_ps};
pub use sizing::Sizing;
pub use slack::{required_times, SlackReport, SlackView};
