//! Netlist path → bounded [`TimedPath`] extraction.
//!
//! The optimizer works on bounded paths (fixed source drive, fixed
//! terminal load, per-stage off-path loading). This module computes those
//! boundary conditions from the netlist context of a [`NetlistPath`]:
//! every fanout pin hanging off the path contributes off-path load, and
//! the last stage's full fanout plus the latch load becomes the terminal
//! load.

use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::{Circuit, GateId};

use crate::analysis::{AnalyzeOptions, NetlistPath};
use crate::sizing::Sizing;

/// A bounded timed path plus its mapping back to netlist gates.
#[derive(Debug, Clone)]
pub struct ExtractedPath {
    /// The bounded path handed to the optimizers.
    pub timed: TimedPath,
    /// `gates[i]` is the netlist gate realizing stage `i`.
    pub gates: Vec<GateId>,
}

impl ExtractedPath {
    /// Write a per-stage sizing solution back into a netlist [`Sizing`].
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len()` differs from the number of stages.
    pub fn apply_sizes(&self, sizing: &mut Sizing, sizes: &[f64]) {
        assert_eq!(sizes.len(), self.gates.len(), "one size per stage");
        for (&g, &cin) in self.gates.iter().zip(sizes) {
            sizing.set(g, cin);
        }
    }
}

/// Extract the bounded [`TimedPath`] corresponding to `path`, under the
/// same [`AnalyzeOptions`] (latch load, input slope) as the timing that
/// selected it.
///
/// Boundary conditions:
/// * **source drive** — the current size of the first path gate (fixed by
///   the latch that feeds the path, per the paper's bounded-path rule);
/// * **off-path load of stage i** — the summed input capacitance (under
///   `sizing`) of every pin on stage i's output net that is *not* the
///   next path gate's on-path pin, plus the latch load if that net is
///   also a primary output;
/// * **terminal load** — all of the last stage's fanout plus the latch
///   load.
///
/// # Panics
///
/// Panics if `path` is empty or consecutive gates are not connected.
///
/// # Example
///
/// ```
/// use pops_netlist::builders::ripple_carry_adder;
/// use pops_delay::Library;
/// use pops_sta::analysis::{analyze, AnalyzeOptions};
/// use pops_sta::{extract_timed_path, Sizing};
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let c = ripple_carry_adder(4);
/// let lib = Library::cmos025();
/// let sizing = Sizing::minimum(&c, &lib);
/// let report = analyze(&c, &lib, &sizing)?;
/// let path = report.critical_path();
/// let extracted = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
/// assert_eq!(extracted.timed.len(), path.gates.len());
/// # Ok(())
/// # }
/// ```
pub fn extract_timed_path(
    circuit: &Circuit,
    lib: &Library,
    sizing: &Sizing,
    path: &NetlistPath,
    options: &AnalyzeOptions,
) -> ExtractedPath {
    assert!(!path.gates.is_empty(), "cannot extract an empty path");
    let n = path.gates.len();
    let mut stages = Vec::with_capacity(n);

    for (i, &gid) in path.gates.iter().enumerate() {
        let gate = circuit.gate(gid);
        let out_net = gate.output();
        let net = circuit.net(out_net);
        let mut off_path = 0.0;
        if i + 1 < n {
            let next = path.gates[i + 1];
            // Every load pin except ONE pin of the next path gate is
            // off-path load (the next gate may legitimately tap the net on
            // several pins; only one of them is the on-path input).
            let mut skipped_on_path_pin = false;
            for &(g, _pin) in net.loads() {
                if g == next && !skipped_on_path_pin {
                    skipped_on_path_pin = true;
                    continue;
                }
                off_path += sizing.cin_ff(g);
            }
            assert!(
                skipped_on_path_pin,
                "path gates {gid} -> {next} are not connected"
            );
            if net.is_output() {
                off_path += options.po_load_ff;
            }
            stages.push(PathStage::with_load(gate.kind(), off_path));
        } else {
            // Last stage: its entire fanout is the terminal load.
            stages.push(PathStage::new(gate.kind()));
        }
    }

    // `n >= 1` by the non-emptiness assertion above.
    let last_net = circuit.net(circuit.gate(path.gates[n - 1]).output());
    let mut terminal = last_net
        .loads()
        .iter()
        .map(|&(g, _)| sizing.cin_ff(g))
        .sum::<f64>();
    if last_net.is_output() {
        terminal += options.po_load_ff;
    }
    if terminal <= 0.0 {
        // A dangling endpoint (should not occur on validated circuits):
        // assume one latch load.
        terminal = options.po_load_ff.max(lib.min_drive_ff());
    }

    let source_drive = sizing.cin_ff(path.gates[0]);
    let timed = TimedPath::new(stages, source_drive, terminal)
        .with_input_conditions(pops_delay::Edge::Rising, options.input_transition_ps);

    ExtractedPath {
        timed,
        gates: path.gates.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use pops_netlist::builders::{inverter_chain, ripple_carry_adder};
    use pops_netlist::suite;

    fn extract(name: &str) -> (ExtractedPath, Library) {
        let c = suite::circuit(name).unwrap();
        let lib = Library::cmos025();
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).unwrap();
        let path = report.critical_path();
        let e = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
        (e, lib)
    }

    #[test]
    fn stage_count_matches_path() {
        let (e, _) = extract("c432");
        assert_eq!(e.timed.len(), e.gates.len());
        assert!(e.timed.len() >= 28, "c432 path should be ~29 gates");
    }

    #[test]
    fn chain_has_no_off_path_load() {
        let c = inverter_chain(5);
        let lib = Library::cmos025();
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).unwrap();
        let path = report.critical_path();
        let e = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
        for s in &e.timed.stages()[..4] {
            assert_eq!(s.off_path_load_ff, 0.0);
        }
        // Terminal = PO latch load.
        assert!((e.timed.terminal_load_ff() - AnalyzeOptions::default().po_load_ff).abs() < 1e-9);
    }

    #[test]
    fn off_path_load_appears_on_shared_nets() {
        let (e, _) = extract("c7552");
        let any_loaded = e.timed.stages().iter().any(|s| s.off_path_load_ff > 0.0);
        assert!(any_loaded, "suite spines carry off-path fanout");
    }

    #[test]
    fn timed_delay_close_to_sta_arrival_on_single_path_circuit() {
        // On an inverter chain the bounded path IS the whole circuit, so
        // the TimedPath delay must match the STA critical delay closely
        // (same model, same slopes).
        let c = inverter_chain(6);
        let lib = Library::cmos025();
        let sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).unwrap();
        let path = report.critical_path();
        let e = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
        let sizes = e.timed.min_sizes(&lib);
        let d = e.timed.delay(&lib, &sizes);
        let sta = report.critical_delay_ps();
        let rel = (d.total_ps - sta).abs() / sta;
        assert!(rel < 0.05, "timed {} vs sta {sta}", d.total_ps);
    }

    #[test]
    fn apply_sizes_round_trips() {
        let c = ripple_carry_adder(3);
        let lib = Library::cmos025();
        let mut sizing = Sizing::minimum(&c, &lib);
        let report = analyze(&c, &lib, &sizing).unwrap();
        let path = report.critical_path();
        let e = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
        let sizes: Vec<f64> = (0..e.timed.len()).map(|i| 3.0 + i as f64).collect();
        e.apply_sizes(&mut sizing, &sizes);
        for (i, &g) in e.gates.iter().enumerate() {
            assert_eq!(sizing.cin_ff(g), 3.0 + i as f64);
        }
    }

    #[test]
    #[should_panic(expected = "are not connected")]
    fn disconnected_path_is_rejected() {
        // Two gates of a chain in reverse order: the second does not
        // load the first's output net, so no stage exists between them.
        let c = inverter_chain(2);
        let lib = Library::cmos025();
        let sizing = Sizing::minimum(&c, &lib);
        let gates: Vec<GateId> = c.gate_ids().collect();
        let path = NetlistPath {
            gates: vec![gates[1], gates[0]],
        };
        let _ = extract_timed_path(&c, &lib, &sizing, &path, &AnalyzeOptions::default());
    }

    #[test]
    fn source_drive_is_first_gate_size() {
        let (e, _) = extract("fpd");
        assert!(e.timed.source_drive_ff() > 0.0);
    }
}
