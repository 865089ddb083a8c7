//! Work from an ISCAS'85 `.bench` file: parse, verify logic, time, and
//! enumerate the K most critical paths (the paper's ref. [11] front end).
//!
//! ```sh
//! cargo run --release --example bench_file_analysis
//! ```

use pops::netlist::bench_format::{parse_bench, write_bench};
use pops::prelude::*;
use pops::sta::kpaths::path_weight_ps;

/// The classic c17 benchmark, inline (public-domain ISCAS'85 content).
const C17: &str = "\
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Library::cmos025();
    let circuit = parse_bench("c17", C17)?;
    println!(
        "parsed c17: {} gates, depth {}",
        circuit.gate_count(),
        circuit.depth()?
    );

    // Functional sanity: evaluate one vector.
    let values = [
        ("1", true),
        ("2", false),
        ("3", true),
        ("6", false),
        ("7", true),
    ]
    .into_iter()
    .collect();
    let out = circuit.evaluate(&values)?;
    println!("f(1,0,1,0,1) -> 22={} 23={}", out["22"], out["23"]);

    // Timing and path enumeration.
    let sizing = Sizing::minimum(&circuit, &lib);
    let report = analyze(&circuit, &lib, &sizing)?;
    println!("critical delay: {:.1} ps", report.critical_delay_ps());
    let paths = k_most_critical_paths(&circuit, &report, 4);
    for (i, p) in paths.iter().enumerate() {
        println!(
            "  path #{i}: {} gates, frozen weight {:.1} ps",
            p.gates.len(),
            path_weight_ps(&report, p)
        );
    }

    // Optimize the worst path under a hard constraint.
    let extracted = extract_timed_path(
        &circuit,
        &lib,
        &sizing,
        &paths[0],
        &AnalyzeOptions::default(),
    );
    let bounds = delay_bounds(&lib, &extracted.timed);
    let outcome = optimize(
        &lib,
        &extracted.timed,
        1.15 * bounds.tmin_ps,
        &ProtocolOptions::default(),
    )?;
    println!(
        "optimized: {:?} -> {:.1} ps at {:.1} um",
        outcome.technique, outcome.delay_ps, outcome.area_um
    );

    // Round-trip the netlist to text and back.
    let text = write_bench(&circuit);
    let round = parse_bench("c17", &text)?;
    assert_eq!(round.gate_count(), circuit.gate_count());
    println!("round-tripped .bench: {} bytes", text.len());
    Ok(())
}
