//! End-to-end benchmark of `pops::flow::optimize_circuit`.
//!
//! The untraced run times the flow itself and checks every result; the
//! traced run replays the same flows through the public calls the flow
//! makes into each layer and attributes the time to those layers. See
//! `README.md` beside this crate for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod check;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
