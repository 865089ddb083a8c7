//! Bench the `Flimit` library characterization (the pre-processing step
//! of the Fig. 7 protocol — "Library characterization (Flimit
//! determination)"). `flimit` keeps each figure in the library after
//! its first call, so every row characterizes through `flimit_with`
//! with the closed-form model, which keeps nothing.

use pops_bench::microbench::Runner;
use pops_core::buffer::flimit_with;
use pops_delay::{Library, TimedPath};
use pops_netlist::CellKind;

fn main() {
    let lib = Library::cmos025();
    let characterize = |gate: CellKind| {
        flimit_with(
            &lib,
            CellKind::Inv,
            gate,
            |path: &TimedPath, sizes: &[f64]| path.delay_worst(&lib, sizes),
        )
    };
    let mut runner = Runner::new("flimit");
    for gate in [CellKind::Inv, CellKind::Nand3, CellKind::Nor3] {
        runner.bench(&format!("flimit/{gate}"), || characterize(gate));
    }

    let gates = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
    ];
    runner.bench("flimit_table_5", || gates.map(characterize));
    runner.finish();
}
