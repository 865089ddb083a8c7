//! Independent checks of one `optimize_circuit` result.

use std::collections::HashMap;

use pops::delay::power::leakage_nw;
use pops::delay::CornerSet;
use pops::flow::FlowResult;
use pops::netlist::rng::SplitMix64;
use pops::netlist::{Circuit, VtClass};
use pops::prelude::{analyze, Library, TimingGraph};
use pops::sta::analysis::AnalyzeOptions;

use crate::workload::Prepared;

/// Random input vectors the logic-equivalence check simulates.
const LOGIC_VECTORS: usize = 16;

/// The outputs of a flow that must repeat bit for bit: the three quality
/// figures plus the counters the per-circuit rows print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// `final_delay_ps` bits.
    pub delay_bits: u64,
    /// `total_cin_ff` bits.
    pub cin_bits: u64,
    /// `leakage_nw` bits.
    pub leakage_bits: u64,
    /// Gates demoted to HVT.
    pub hvt_gates: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Paths optimized.
    pub paths: usize,
    /// Structural edits in the returned circuit.
    pub edits: usize,
}

impl Quality {
    /// The quality outputs of `r`.
    pub fn of(r: &FlowResult) -> Self {
        Quality {
            delay_bits: r.final_delay_ps.to_bits(),
            cin_bits: r.total_cin_ff.to_bits(),
            leakage_bits: r.leakage_nw.to_bits(),
            hvt_gates: r.hvt_gates,
            rounds: r.rounds,
            paths: r.paths_optimized,
            edits: r.edits_applied,
        }
    }

    /// Final delay (ps).
    pub fn delay_ps(&self) -> f64 {
        f64::from_bits(self.delay_bits)
    }

    /// Total input capacitance (fF).
    pub fn cin_ff(&self) -> f64 {
        f64::from_bits(self.cin_bits)
    }

    /// Leakage (nW).
    pub fn leakage_nw(&self) -> f64 {
        f64::from_bits(self.leakage_bits)
    }
}

/// Check one flow result against its input without trusting any figure
/// the flow reported:
///
/// * a fresh one-shot `analyze` of the returned (circuit, sizing)
///   reproduces `final_delay_ps` bit for bit;
/// * the returned netlist validates;
/// * when edits were applied, it computes the input's outputs on seeded
///   random vectors; otherwise it has the input's gate count;
/// * `leakage_nw` recomputes exactly from the returned sizes and classes,
///   and `hvt_gates` counts the HVT classes;
/// * with `vt_assignment`, a demoted design meets tc at every corner of
///   a fresh slow/typical/fast graph.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check_result(
    prep: &Prepared,
    lib: &Library,
    vt_assignment: bool,
    r: &FlowResult,
) -> Result<(), String> {
    let fresh = analyze(&r.circuit, lib, &r.sizing)
        .map_err(|e| format!("fresh analysis failed: {e}"))?
        .critical_delay_ps();
    if fresh.to_bits() != r.final_delay_ps.to_bits() {
        return Err(format!(
            "fresh analysis reads {fresh} ps, flow reported {} ps",
            r.final_delay_ps
        ));
    }
    r.circuit
        .validate()
        .map_err(|e| format!("returned netlist is invalid: {e}"))?;
    if r.sizing.len() != r.circuit.gate_count() || r.vt_classes.len() != r.circuit.gate_count() {
        return Err("sizing or Vt classes do not cover every gate".into());
    }
    if r.edits_applied > 0 {
        same_logic(&prep.circuit, &r.circuit)?;
    } else if r.circuit.gate_count() != prep.circuit.gate_count() {
        return Err("netlist changed although no edit was reported".into());
    }

    let leakage: f64 = r
        .circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), r.vt_classes[g.index()], r.sizing.cin_ff(g)))
        .sum();
    if leakage.to_bits() != r.leakage_nw.to_bits() {
        return Err(format!(
            "leakage recomputes to {leakage} nW, flow reported {} nW",
            r.leakage_nw
        ));
    }
    let hvt = r.vt_classes.iter().filter(|&&v| v == VtClass::Hvt).count();
    if hvt != r.hvt_gates {
        return Err(format!("{hvt} HVT classes, flow reported {}", r.hvt_gates));
    }
    if hvt == 0 {
        return Ok(());
    }
    if !vt_assignment {
        return Err("HVT gates without the Vt pass".into());
    }
    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    let mut graph = TimingGraph::with_corners(
        &r.circuit,
        lib,
        &r.sizing,
        &AnalyzeOptions::default(),
        &corners,
    )
    .map_err(|e| format!("corner graph failed: {e}"))?;
    graph.set_threads(1);
    for (g, &class) in r.circuit.gate_ids().zip(&r.vt_classes) {
        graph.set_vt_class(g, class);
    }
    graph.set_constraint(prep.tc_ps);
    for c in 0..graph.n_corners() {
        match graph.worst_slack_overall_ps_corner(c) {
            Some(s) if s >= 0.0 => {}
            other => return Err(format!("corner {c} misses tc: worst slack {other:?}")),
        }
    }
    Ok(())
}

/// Simulate both netlists on seeded random input vectors and compare
/// every primary output by name.
fn same_logic(input: &Circuit, output: &Circuit) -> Result<(), String> {
    let names: Vec<&str> = input
        .primary_inputs()
        .iter()
        .map(|&n| input.net(n).name())
        .collect();
    let mut rng = SplitMix64::new(0xF10B_E7C4);
    for _ in 0..LOGIC_VECTORS {
        let values: HashMap<&str, bool> = names.iter().map(|&n| (n, rng.chance(0.5))).collect();
        let want = input.evaluate(&values).map_err(|e| e.to_string())?;
        let got = output.evaluate(&values).map_err(|e| e.to_string())?;
        if want != got {
            return Err("edited netlist computes different outputs".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, set_up, Workload};
    use pops::flow::optimize_circuit;

    fn fpd_result(workload: &str) -> (Prepared, FlowResult) {
        let w = Workload::by_name(workload).unwrap();
        let lib = Library::cmos025();
        let p = set_up(w, 0, &lib).unwrap().prepared.swap_remove(0);
        let r = optimize_circuit(&p.circuit, &lib, p.tc_ps, &w.flow_options()).unwrap();
        (p, r)
    }

    fn recomputed_leakage(r: &FlowResult, lib: &Library) -> f64 {
        r.circuit
            .gate_ids()
            .map(|g| leakage_nw(lib.process(), r.vt_classes[g.index()], r.sizing.cin_ff(g)))
            .sum()
    }

    #[test]
    fn a_vt_result_passes_and_each_tampered_figure_fails() {
        let lib = Library::cmos025();
        let (p, r) = fpd_result("suite_vt");
        assert!(r.hvt_gates > 0);
        check_result(&p, &lib, true, &r).unwrap();

        let mut bad = r.clone();
        bad.final_delay_ps = f64::from_bits(r.final_delay_ps.to_bits() + 1);
        assert!(check_result(&p, &lib, true, &bad)
            .unwrap_err()
            .contains("fresh analysis"));

        let mut bad = r.clone();
        bad.leakage_nw = f64::from_bits(r.leakage_nw.to_bits() + 1);
        assert!(check_result(&p, &lib, true, &bad)
            .unwrap_err()
            .contains("leakage"));

        let mut bad = r.clone();
        bad.hvt_gates += 1;
        assert!(check_result(&p, &lib, true, &bad)
            .unwrap_err()
            .contains("HVT"));

        // Demoting every gate leaves the slow corner short of tc.
        let mut bad = r.clone();
        bad.vt_classes = vec![VtClass::Hvt; r.circuit.gate_count()];
        bad.hvt_gates = r.circuit.gate_count();
        bad.leakage_nw = recomputed_leakage(&bad, &lib);
        assert!(check_result(&p, &lib, true, &bad)
            .unwrap_err()
            .contains("misses tc"));
    }

    #[test]
    fn an_edited_result_passes_and_changed_logic_fails() {
        let lib = Library::cmos025();
        let (p, r) = fpd_result("suite_tight");
        assert!(r.edits_applied > 0, "fpd at 0.6·T0 takes structural edits");
        check_result(&p, &lib, false, &r).unwrap();
        same_logic(&p.circuit, &r.circuit).unwrap();
        let rewired = generate("fpd", 0, 1);
        assert!(same_logic(&p.circuit, &rewired).is_err());
    }
}
