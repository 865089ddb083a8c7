//! Benchmark workloads: critical paths extracted from the ISCAS'85-like
//! suite, ready for path optimization.

use pops_delay::{Library, TimedPath};
use pops_netlist::suite;
use pops_sta::analysis::{analyze, AnalyzeOptions};
use pops_sta::{extract_timed_path, Sizing};

/// A named bounded path extracted from a benchmark circuit.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (`"c432"`, …).
    pub name: &'static str,
    /// The bounded critical path.
    pub path: TimedPath,
    /// Gates on the path (the paper's Table 1 "gate nb").
    pub gate_count: usize,
}

/// Extract the critical-path workload of one benchmark.
///
/// # Panics
///
/// Panics if `name` is not in the suite (the binaries iterate over known
/// names only).
pub fn workload(lib: &Library, name: &'static str) -> Workload {
    let circuit =
        suite::circuit(name).unwrap_or_else(|| panic!("unknown benchmark circuit `{name}`"));
    let sizing = Sizing::minimum(&circuit, lib);
    let report = analyze(&circuit, lib, &sizing).expect("suite circuits are acyclic");
    let path = report.critical_path();
    let extracted = extract_timed_path(&circuit, lib, &sizing, &path, &AnalyzeOptions::default());
    Workload {
        name,
        gate_count: extracted.timed.len(),
        path: extracted.timed,
    }
}

/// All eleven paper circuits, in presentation order.
pub fn paper_workloads(lib: &Library) -> Vec<Workload> {
    suite::names()
        .into_iter()
        .map(|n| workload(lib, n))
        .collect()
}

/// The ten circuits of Fig. 2 / Tables 1, 3 (everything except `fpd`,
/// which only appears in the CPU-time table).
pub fn fig2_workloads(lib: &Library) -> Vec<Workload> {
    paper_workloads(lib)
        .into_iter()
        .filter(|w| w.name != "fpd")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_extract_with_expected_lengths() {
        let lib = Library::cmos025();
        let ws = paper_workloads(&lib);
        assert_eq!(ws.len(), 11);
        for w in &ws {
            let profile = suite::BenchmarkSuite::new().profile(w.name).unwrap();
            // The extracted path must match the published path length to
            // within the slope-induced wiggle (±1 gate).
            assert!(
                w.gate_count + 1 >= profile.path_gates,
                "{}: extracted {} vs profile {}",
                w.name,
                w.gate_count,
                profile.path_gates
            );
        }
    }

    #[test]
    fn workload_paths_are_optimizable() {
        let lib = Library::cmos025();
        let w = workload(&lib, "fpd");
        let b = pops_core::bounds::delay_bounds(&lib, &w.path);
        assert!(b.tmin_ps < b.tmax_ps);
        let sol = pops_core::distribute_constraint(&lib, &w.path, 1.3 * b.tmin_ps).unwrap();
        assert!(sol.delay_ps <= 1.3 * b.tmin_ps * 1.001);
    }
}
