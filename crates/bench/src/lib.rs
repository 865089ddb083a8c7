//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `src/bin/*` binary reproduces one artifact (Fig. 1 … Table 4) and
//! prints the same rows/series the paper reports, next to the paper's
//! published values where available. Machine-readable copies are written
//! to `target/paper_results/*.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod microbench;
pub mod paper_ref;
pub mod report;
pub mod workloads;

pub use report::{mean, median, print_table, write_artifact, write_baseline};
pub use workloads::{fig2_workloads, paper_workloads, workload, Workload};
