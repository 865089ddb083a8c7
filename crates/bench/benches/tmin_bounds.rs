//! Bench the `Tmin` link-equation fixed point (Fig. 1's engine) as the
//! path length grows.

use pops_bench::microbench::Runner;
use pops_core::bounds::tmin;
use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::CellKind;

fn path_of(n: usize, lib: &Library) -> TimedPath {
    use CellKind::*;
    let cycle = [Inv, Nand2, Nor2, Inv, Nand3, Nor3];
    let stages: Vec<PathStage> = (0..n)
        .map(|i| PathStage::with_load(cycle[i % cycle.len()], (i % 3) as f64 * 4.0))
        .collect();
    TimedPath::new(stages, lib.min_drive_ff(), 120.0)
}

fn main() {
    let lib = Library::cmos025();
    let mut runner = Runner::new("tmin_bounds");
    for n in [8usize, 16, 32, 64, 128] {
        let path = path_of(n, &lib);
        runner.bench(&format!("tmin/{n}"), || tmin(&lib, &path));
    }
    runner.finish();
}
