//! The paper's headline workload: optimize the critical path of every
//! ISCAS'85-class benchmark under all three constraint domains.
//!
//! ```sh
//! cargo run --release --example iscas_optimization
//! ```
//!
//! For each circuit: build the netlist, run STA, extract the critical
//! path as a bounded `TimedPath`, then let the Fig. 7 protocol choose
//! between sizing, buffering and restructuring.

use pops::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Library::cmos025();

    println!(
        "{:<8} {:>5} {:>10} {:>7} | {:>22} {:>10} {:>9}",
        "circuit", "gates", "Tmin(ns)", "class", "technique", "delay(ns)", "area(um)"
    );
    for name in pops::netlist::suite::names() {
        let circuit = pops::netlist::suite::circuit(name).expect("known circuit");
        let sizing = Sizing::minimum(&circuit, &lib);
        let report = analyze(&circuit, &lib, &sizing)?;
        let critical = report.critical_path();
        let extracted = extract_timed_path(
            &circuit,
            &lib,
            &sizing,
            &critical,
            &AnalyzeOptions::default(),
        );

        let bounds = delay_bounds(&lib, &extracted.timed);
        for factor in [1.1, 1.8, 2.7] {
            let tc = factor * bounds.tmin_ps;
            let outcome = optimize(&lib, &extracted.timed, tc, &ProtocolOptions::default())?;
            println!(
                "{:<8} {:>5} {:>10.2} {:>7} | {:>22} {:>10.2} {:>9.0}",
                name,
                extracted.timed.len(),
                bounds.tmin_ps / 1000.0,
                format!("{:?}", outcome.class),
                format!("{:?}", outcome.technique),
                outcome.delay_ps / 1000.0,
                outcome.area_um,
            );
        }
    }
    Ok(())
}
