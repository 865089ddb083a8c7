//! Gate-level netlist substrate for the POPS optimization protocol.
//!
//! This crate provides everything the DATE 2005 paper assumes as its design
//! representation:
//!
//! * a static CMOS [`cell::CellKind`] library (inverters, buffers,
//!   NAND/NOR/AND/OR of 2–4 inputs, XOR/XNOR),
//! * an arena-based combinational [`circuit::Circuit`] graph,
//! * ISCAS'85 [`bench_format`] (`.bench`) parsing and writing,
//! * structural [`builders`] (ripple-carry adders, inverter chains, the
//!   synthetic scaling fabrics),
//! * a seeded, deterministic ISCAS'85-like benchmark [`suite`] whose
//!   critical-path profiles match the circuits evaluated in the paper.
//!
//! # Example
//!
//! ```
//! use pops_netlist::prelude::*;
//!
//! # fn main() -> Result<(), NetlistError> {
//! let mut c = Circuit::new("toy");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let n = c.add_gate(CellKind::Nand2, &[a, b], "n")?;
//! let y = c.add_gate(CellKind::Inv, &[n], "y")?;
//! c.mark_output(y);
//! assert_eq!(c.gate_count(), 2);
//! // NAND followed by INV behaves as AND:
//! let out = c.evaluate(&[("a", true), ("b", true)].into_iter().collect())?;
//! assert_eq!(out["y"], true);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod builders;
pub mod cell;
pub mod circuit;
pub mod error;
pub mod rng;
pub mod suite;
pub mod surgery;

pub use cell::{CellKind, VtClass};
pub use circuit::{BufferInsertion, Circuit, DeMorganEdit, Gate, GateId, Net, NetDriver, NetId};
pub use error::NetlistError;
pub use surgery::{AppliedEdit, EditOp, EditPlan};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::bench_format::{parse_bench, write_bench};
    pub use crate::cell::CellKind;
    pub use crate::circuit::{Circuit, Gate, GateId, Net, NetDriver, NetId};
    pub use crate::error::NetlistError;
    pub use crate::suite::{self, BenchmarkSuite, CircuitProfile};
    pub use crate::surgery::{AppliedEdit, EditOp, EditPlan};
}
