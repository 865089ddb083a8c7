//! POPS — the DATE 2005 "Low Power Oriented CMOS Circuit Optimization
//! Protocol" (Verle, Michel, Azemard, Maurine, Auvergne).
//!
//! Given a *bounded* combinational path (fixed source drive, fixed
//! terminal load) and a delay constraint `Tc`, this crate implements the
//! paper's deterministic optimization flow:
//!
//! 1. [`bounds`] — explore the design space: `Tmax` (all gates at minimum
//!    drive) and `Tmin` (the fixed point of the eq. (4) link equations).
//!    `Tc < Tmin` ⟹ the constraint is infeasible by sizing alone.
//! 2. [`sensitivity`] — the **constant sensitivity method**: size every
//!    gate so `∂T/∂C_IN(i) = a` (eq. 5–6) and search `a` by Newton steps
//!    until the constraint is met at minimum area.
//! 3. [`buffer`] — the **`Flimit` metric** (Table 2): the fan-out at which
//!    inserting an optimally sized buffer beats driving the load directly;
//!    used to identify critical nodes and to build the buffered variant of
//!    a path.
//! 4. [`restructure`] — De Morgan replacement of inefficient (low
//!    `Flimit`) NOR gates by inverter/NAND/inverter structures (§4.2).
//! 5. [`protocol`] — the Fig. 7 decision procedure tying it all together:
//!    weak / medium / hard constraint domains with the 1.2·Tmin and
//!    2.5·Tmin boundaries.
//!
//! [`sutherland`] provides the equal-delay distribution strawman the paper
//! compares against in §3.2.
//!
//! # Example
//!
//! ```
//! use pops_core::protocol::{optimize, ProtocolOptions};
//! use pops_delay::{Library, PathStage, TimedPath};
//! use pops_netlist::CellKind;
//!
//! # fn main() -> Result<(), pops_core::OptimizeError> {
//! let lib = Library::cmos025();
//! let path = TimedPath::new(
//!     vec![PathStage::new(CellKind::Inv), PathStage::new(CellKind::Nand2),
//!          PathStage::new(CellKind::Nor2), PathStage::new(CellKind::Inv)],
//!     lib.min_drive_ff(),
//!     80.0,
//! );
//! let bounds = pops_core::bounds::delay_bounds(&lib, &path);
//! let tc = 1.5 * bounds.tmin_ps; // a medium constraint
//! let outcome = optimize(&lib, &path, tc, &ProtocolOptions::default())?;
//! assert!(outcome.delay_ps <= tc * 1.001);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod buffer;
pub mod error;
pub mod gradient;
pub mod protocol;
pub mod restructure;
pub mod sensitivity;
pub mod sutherland;

pub use bounds::{delay_bounds, DelayBounds};
pub use error::OptimizeError;
pub use sensitivity::{distribute_constraint, ConstraintSolution};
