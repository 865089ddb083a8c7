//! Optimize the carry chain of a *real* gate-level 16-bit ripple-carry
//! adder (not the synthetic suite profile): netlist construction, STA,
//! K-most-critical-paths, extraction, and protocol run.
//!
//! ```sh
//! cargo run --release --example adder_carry_chain
//! ```

use pops::netlist::builders::ripple_carry_adder;
use pops::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Library::cmos025();
    let adder = ripple_carry_adder(16);
    println!(
        "adder16: {} gates, {} nets, depth {}",
        adder.gate_count(),
        adder.net_count(),
        adder.depth()?
    );

    // STA at minimum drive.
    let sizing = Sizing::minimum(&adder, &lib);
    let report = analyze(&adder, &lib, &sizing)?;
    println!(
        "critical delay at min drive: {:.2} ns",
        report.critical_delay_ps() / 1000.0
    );

    // The carry ripple dominates: look at the top 5 paths.
    let paths = k_most_critical_paths(&adder, &report, 5);
    for (i, p) in paths.iter().enumerate() {
        println!("  path #{i}: {} gates", p.gates.len());
    }

    // Optimize the worst one under a medium constraint.
    let critical = report.critical_path();
    let extracted =
        extract_timed_path(&adder, &lib, &sizing, &critical, &AnalyzeOptions::default());
    let bounds = delay_bounds(&lib, &extracted.timed);
    println!(
        "carry chain: {} stages, Tmin {:.2} ns, Tmax {:.2} ns",
        extracted.timed.len(),
        bounds.tmin_ps / 1000.0,
        bounds.tmax_ps / 1000.0
    );

    let tc = 1.5 * bounds.tmin_ps;
    let outcome = optimize(&lib, &extracted.timed, tc, &ProtocolOptions::default())?;
    println!(
        "optimized via {:?}: delay {:.2} ns (Tc {:.2} ns), area {:.0} um",
        outcome.technique,
        outcome.delay_ps / 1000.0,
        tc / 1000.0,
        outcome.area_um
    );

    // Write the sizing back into the netlist and re-check with full STA.
    // (Only valid when the protocol did not modify the structure.)
    if outcome.technique == Technique::SizingOnly {
        let mut final_sizing = sizing.clone();
        extracted.apply_sizes(&mut final_sizing, &outcome.sizes);
        let after = analyze(&adder, &lib, &final_sizing)?;
        println!(
            "full-netlist STA after sizing: {:.2} ns (was {:.2} ns)",
            after.critical_delay_ps() / 1000.0,
            report.critical_delay_ps() / 1000.0
        );
    }
    Ok(())
}
