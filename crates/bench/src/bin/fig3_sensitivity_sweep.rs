//! Fig. 3 — the constant sensitivity method on an 11-gate path: each
//! value of the coefficient `a` yields one (area, delay) point; sweeping
//! `a` from 0 to large negative values walks the whole design space from
//! `Tmin` to the minimum-area/`Tmax` corner.

use pops_bench::{print_table, write_artifact};
use pops_core::bounds::{tmax, tmin};
use pops_core::sensitivity::design_space_sweep;
use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::CellKind;

struct Point {
    a: f64,
    area_um: f64,
    delay_ps: f64,
}
pops_bench::json_fields!(Point {
    a,
    area_um,
    delay_ps
});

fn eleven_gate_path(lib: &Library) -> TimedPath {
    use CellKind::*;
    TimedPath::new(
        vec![
            PathStage::new(Inv),
            PathStage::new(Nand2),
            PathStage::new(Inv),
            PathStage::with_load(Nor2, 5.0),
            PathStage::new(Nand3),
            PathStage::new(Inv),
            PathStage::new(Nor3),
            PathStage::with_load(Nand2, 8.0),
            PathStage::new(Inv),
            PathStage::new(Nor2),
            PathStage::new(Inv),
        ],
        lib.min_drive_ff(),
        90.0,
    )
}

fn main() {
    let lib = Library::cmos025();
    let path = eleven_gate_path(&lib);

    // The paper annotates a = -0.06, -0.6, -0.8 on its curve; we sweep a
    // denser log grid covering the same range and beyond.
    let a_values: Vec<f64> = vec![
        0.0, -0.01, -0.03, -0.06, -0.1, -0.2, -0.4, -0.6, -0.8, -1.2, -2.0, -4.0, -8.0, -20.0,
        -60.0,
    ];
    let points = design_space_sweep(&lib, &path, &a_values);

    println!("Fig. 3 — constant sensitivity design-space sweep (11-gate path)\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:+.2}", p.a),
                format!("{:.1}", path.area_um(&lib, &p.sizes)),
                format!("{:.1}", p.delay_ps),
            ]
        })
        .collect();
    print_table(&["a (ps/fF)", "sigmaW (um)", "delay (ps)"], &rows);

    let t_min = tmin(&lib, &path).delay_ps;
    let t_max = tmax(&lib, &path);
    println!(
        "\nT(a=0)  = {:.1} ps  (the Tmin anchor of the curve)",
        t_min
    );
    println!(
        "Tmax    = {:.1} ps  (minimum-drive end of the curve)",
        t_max
    );
    println!(
        "Shape check (paper): delay rises monotonically as a goes negative, \
         area falls monotonically — one curve, fully ordered."
    );

    let artifact: Vec<Point> = points
        .iter()
        .map(|p| Point {
            a: p.a,
            area_um: path.area_um(&lib, &p.sizes),
            delay_ps: p.delay_ps,
        })
        .collect();
    write_artifact("fig3_sensitivity_sweep", &artifact);
}
