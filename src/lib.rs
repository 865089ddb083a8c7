//! POPS — Low Power Oriented CMOS Circuit Optimization Protocol.
//!
//! A from-scratch Rust reproduction of Verle, Michel, Azemard, Maurine &
//! Auvergne, *"Low Power Oriented CMOS Circuit Optimization Protocol"*,
//! DATE 2005: deterministic selection between **gate sizing**, **buffer
//! insertion** and **De Morgan logic restructuring** to satisfy a delay
//! constraint on a combinational path at minimum area (power).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `pops-netlist` | cells, circuits, `.bench` I/O, benchmark suite |
//! | [`delay`] | `pops-delay` | the closed-form timing model (eqs. 1–3) |
//! | [`sta`] | `pops-sta` | static timing analysis, K critical paths |
//! | [`spice`] | `pops-spice` | transistor-level transient simulator |
//! | [`core`] | `pops-core` | bounds, constant sensitivity, `Flimit`, protocol |
//! | [`amps`] | `pops-amps` | iterative industrial-style baselines |
//!
//! # Quickstart
//!
//! ```
//! use pops::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A bounded path: latch-pinned input drive, fixed terminal load.
//! let lib = Library::cmos025();
//! let path = TimedPath::new(
//!     vec![
//!         PathStage::new(CellKind::Inv),
//!         PathStage::new(CellKind::Nand2),
//!         PathStage::with_load(CellKind::Nor3, 25.0),
//!         PathStage::new(CellKind::Inv),
//!     ],
//!     lib.min_drive_ff(),
//!     100.0,
//! );
//!
//! // 1. Explore the design space: is the constraint feasible at all?
//! let bounds = delay_bounds(&lib, &path);
//! let tc = 1.3 * bounds.tmin_ps;
//!
//! // 2. Run the protocol: it picks sizing / buffering / restructuring.
//! let outcome = optimize(&lib, &path, tc, &ProtocolOptions::default())?;
//! assert!(outcome.delay_ps <= tc * 1.001);
//! println!("area = {:.1} um via {:?}", outcome.area_um, outcome.technique);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pops_amps as amps;
pub use pops_core as core;
pub use pops_delay as delay;
pub use pops_netlist as netlist;
pub use pops_spice as spice;
pub use pops_sta as sta;

pub mod flow;

/// Everything needed for typical protocol runs, in one import.
pub mod prelude {
    pub use pops_core::bounds::{delay_bounds, tmax, tmin, DelayBounds};
    pub use pops_core::buffer::{flimit, insert_buffers};
    pub use pops_core::protocol::{
        optimize, ConstraintClass, ProtocolOptions, ProtocolOutcome, Technique,
    };
    pub use pops_core::restructure::demorgan_restructure;
    pub use pops_core::sensitivity::{distribute_constraint, ConstraintSolution};
    pub use pops_core::OptimizeError;
    pub use pops_delay::{CornerSet, Edge, Library, PathStage, Process, TimedPath};
    pub use pops_netlist::prelude::*;
    pub use pops_sta::analysis::{analyze, AnalyzeOptions};
    pub use pops_sta::{
        extract_timed_path, k_most_critical_paths, required_times, Sizing, TimingGraph, TimingView,
    };
}
