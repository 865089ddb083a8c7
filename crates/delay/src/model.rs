//! Eqs. (1)–(3): single-gate delay and output transition time.

use pops_netlist::{CellKind, VtClass};

use crate::library::{Library, VtTiming};

/// A signal edge direction at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low-to-high transition.
    Rising,
    /// High-to-low transition.
    Falling,
}

impl Edge {
    /// The opposite edge.
    pub fn flipped(self) -> Edge {
        match self {
            Edge::Rising => Edge::Falling,
            Edge::Falling => Edge::Rising,
        }
    }

    /// Edge at a cell output given this edge at its (on-path) input.
    pub fn through(self, cell: CellKind) -> Edge {
        if cell.is_inverting() {
            self.flipped()
        } else {
            self
        }
    }
}

/// Result of a single-gate delay evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDelay {
    /// Switching delay (ps), 50 % input to 50 % output.
    pub delay_ps: f64,
    /// Output transition time (ps), eq. (2).
    pub output_transition_ps: f64,
    /// Edge direction at the output.
    pub output_edge: Edge,
}

/// Evaluate eqs. (1)–(3) for one gate.
///
/// * `cin_ff` — gate input (pin) capacitance: the sizing variable.
/// * `cl_ext_ff` — external load (fanin pin caps of driven gates + wire);
///   the cell's own drain parasitic `C_par` is added internally.
/// * `tau_in_ps` — transition time of the driving edge at the gate input.
/// * `input_edge` — direction of that edge.
///
/// The reduced threshold used by the slope term follows the switching
/// device: a rising input drives the N transistor (`v_TN`), a falling
/// input the P transistor (`v_TP`).
///
/// # Panics
///
/// Panics (debug assertions) on non-positive capacitances or negative
/// transition times — callers own input validation.
///
/// # Example
///
/// ```
/// use pops_delay::{Library, Edge};
/// use pops_netlist::CellKind;
///
/// let lib = Library::cmos025();
/// let fast = lib.delay(CellKind::Inv, 10.0, 20.0, 30.0, Edge::Rising);
/// let slow = lib.delay(CellKind::Inv, 10.0, 40.0, 30.0, Edge::Rising);
/// assert!(slow.delay_ps > fast.delay_ps); // heavier load, longer delay
/// ```
pub fn gate_delay(
    lib: &Library,
    kind: CellKind,
    cin_ff: f64,
    cl_ext_ff: f64,
    tau_in_ps: f64,
    input_edge: Edge,
) -> GateDelay {
    gate_delay_with_output_edge(
        lib,
        kind,
        cin_ff,
        cl_ext_ff,
        tau_in_ps,
        input_edge,
        input_edge.through(kind),
    )
}

/// Evaluate eqs. (1)–(3) with an explicitly chosen output edge.
///
/// Needed for *binate* cells (XOR/XNOR): a rising input can produce either
/// output edge depending on the side input, so worst-case STA must probe
/// both. For unate cells, [`gate_delay`] (which derives the output edge
/// from the cell's polarity) is the right entry point.
///
/// The input edge selects the slope-term threshold and the Miller
/// coupling device; the output edge selects the symmetry factor. This is
/// [`gate_delay_with_output_edge_vt`] for the standard-Vt cell, whose
/// factors are exactly `1.0`, so every product is exact.
pub fn gate_delay_with_output_edge(
    lib: &Library,
    kind: CellKind,
    cin_ff: f64,
    cl_ext_ff: f64,
    tau_in_ps: f64,
    input_edge: Edge,
    output_edge: Edge,
) -> GateDelay {
    gate_delay_with_output_edge_vt(
        lib,
        kind,
        VtTiming::of(VtClass::Svt),
        cin_ff,
        cl_ext_ff,
        tau_in_ps,
        input_edge,
        output_edge,
    )
}

/// Evaluate eqs. (1)–(3) for a threshold-voltage variant of the cell.
///
/// The Vt variant scales the output-transition scale (`drive_factor` on
/// `τ·S`) and the effective reduced threshold (`vt_scale` on `v_T`);
/// capacitances are unchanged (same drawn widths, different implants).
#[allow(clippy::too_many_arguments)]
pub fn gate_delay_with_output_edge_vt(
    lib: &Library,
    kind: CellKind,
    vt_timing: VtTiming,
    cin_ff: f64,
    cl_ext_ff: f64,
    tau_in_ps: f64,
    input_edge: Edge,
    output_edge: Edge,
) -> GateDelay {
    debug_assert!(cin_ff > 0.0, "input capacitance must be positive");
    debug_assert!(cl_ext_ff >= 0.0, "load must be non-negative");
    debug_assert!(tau_in_ps >= 0.0, "input transition must be non-negative");

    let process = lib.process();
    let cell = lib.cell(kind);

    // eq. (2)-(3): output transition time.
    let cl_total = cell.cpar_ff(cin_ff) + cl_ext_ff;
    let s = cell.s_factor(process, output_edge);
    let tau_out = process.tau_ps * s * vt_timing.drive_factor * cl_total / cin_ff;

    // eq. (1): slope term + Miller-amplified output term.
    let vt = match input_edge {
        Edge::Rising => process.vtn_reduced(),
        Edge::Falling => process.vtp_reduced(),
    } * vt_timing.vt_scale;
    let cm = cell.miller_ff(cin_ff, input_edge);
    let miller = 1.0 + 2.0 * cm / (cm + cl_total);
    let delay = 0.5 * vt * tau_in_ps + 0.5 * miller * tau_out;

    GateDelay {
        delay_ps: delay,
        output_transition_ps: tau_out,
        output_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::cmos025()
    }

    #[test]
    fn delay_increases_with_load() {
        let lib = lib();
        let mut last = 0.0;
        for cl in [5.0, 10.0, 20.0, 40.0, 80.0] {
            let d = gate_delay(&lib, CellKind::Inv, 5.0, cl, 20.0, Edge::Rising);
            assert!(d.delay_ps > last);
            last = d.delay_ps;
        }
    }

    #[test]
    fn delay_decreases_with_size_at_fixed_load() {
        let lib = lib();
        let mut last = f64::INFINITY;
        for cin in [2.7, 5.4, 10.8, 21.6] {
            let d = gate_delay(&lib, CellKind::Inv, cin, 50.0, 20.0, Edge::Rising);
            assert!(d.delay_ps < last, "cin={cin}: {} !< {last}", d.delay_ps);
            last = d.delay_ps;
        }
    }

    #[test]
    fn transition_scales_linearly_with_fanout() {
        let lib = lib();
        // With C_par ∝ C_IN, τ_out = τ·S·(cpar_factor + F) where F = CL/CIN.
        let a = gate_delay(&lib, CellKind::Inv, 4.0, 16.0, 0.0, Edge::Rising);
        let b = gate_delay(&lib, CellKind::Inv, 8.0, 32.0, 0.0, Edge::Rising);
        assert!((a.output_transition_ps - b.output_transition_ps).abs() < 1e-9);
    }

    #[test]
    fn slope_term_is_linear_in_input_transition() {
        let lib = lib();
        let d0 = gate_delay(&lib, CellKind::Nand2, 6.0, 20.0, 0.0, Edge::Rising);
        let d1 = gate_delay(&lib, CellKind::Nand2, 6.0, 20.0, 100.0, Edge::Rising);
        let d2 = gate_delay(&lib, CellKind::Nand2, 6.0, 20.0, 200.0, Edge::Rising);
        let slope1 = d1.delay_ps - d0.delay_ps;
        let slope2 = d2.delay_ps - d1.delay_ps;
        assert!((slope1 - slope2).abs() < 1e-9);
        // And the coefficient is v_TN/2.
        let expected = 0.5 * lib.process().vtn_reduced() * 100.0;
        assert!((slope1 - expected).abs() < 1e-9);
    }

    #[test]
    fn inverting_cells_flip_edges() {
        let lib = lib();
        let d = gate_delay(&lib, CellKind::Nor2, 6.0, 10.0, 10.0, Edge::Rising);
        assert_eq!(d.output_edge, Edge::Falling);
        let d = gate_delay(&lib, CellKind::And2, 6.0, 10.0, 10.0, Edge::Rising);
        assert_eq!(d.output_edge, Edge::Rising);
    }

    #[test]
    fn nor_rising_output_slower_than_nand_falling_context() {
        // Same sizes and loads: producing a rising output through a NOR3's
        // stacked PMOS is slower than a falling output through NAND3's
        // stacked NMOS (R > 1 penalizes P stacks).
        let lib = lib();
        let nor = gate_delay(&lib, CellKind::Nor3, 8.0, 30.0, 50.0, Edge::Falling);
        assert_eq!(nor.output_edge, Edge::Rising);
        let nand = gate_delay(&lib, CellKind::Nand3, 8.0, 30.0, 50.0, Edge::Rising);
        assert_eq!(nand.output_edge, Edge::Falling);
        assert!(nor.delay_ps > nand.delay_ps);
    }

    #[test]
    fn miller_amplification_bounded_between_one_and_three() {
        // 1 ≤ 1 + 2CM/(CM+CL) < 3 for any CM, CL > 0; at huge loads → 1.
        let lib = lib();
        let light = gate_delay(&lib, CellKind::Inv, 10.0, 0.1, 0.0, Edge::Rising);
        let heavy = gate_delay(&lib, CellKind::Inv, 10.0, 1e6, 0.0, Edge::Rising);
        // Extract implied Miller factors: delay = ½·m·τ_out.
        let m_light = 2.0 * light.delay_ps / light.output_transition_ps;
        let m_heavy = 2.0 * heavy.delay_ps / heavy.output_transition_ps;
        assert!(m_light > m_heavy);
        assert!(m_light < 3.0);
        assert!(m_heavy >= 1.0 - 1e-9);
    }

    #[test]
    fn fo4_inverter_delay_is_plausible_for_025um() {
        // Sanity anchor: an FO4 inverter in a 0.25 µm process should sit
        // somewhere in the 60–150 ps window.
        let lib = lib();
        let cref = lib.process().c_ref_ff;
        // Self-consistent input slope: feed the gate its own output slope.
        let mut tau_in = 50.0;
        let mut d = gate_delay(&lib, CellKind::Inv, cref, 4.0 * cref, tau_in, Edge::Rising);
        for _ in 0..10 {
            tau_in = d.output_transition_ps;
            d = gate_delay(&lib, CellKind::Inv, cref, 4.0 * cref, tau_in, Edge::Rising);
        }
        assert!(
            (60.0..150.0).contains(&d.delay_ps),
            "FO4 delay {} ps out of range",
            d.delay_ps
        );
    }

    #[test]
    fn rising_and_falling_inputs_use_different_thresholds() {
        let lib = lib();
        let r = gate_delay(&lib, CellKind::Inv, 5.0, 20.0, 100.0, Edge::Rising);
        let f = gate_delay(&lib, CellKind::Inv, 5.0, 20.0, 100.0, Edge::Falling);
        assert_ne!(r.delay_ps, f.delay_ps);
    }

    #[test]
    fn vt_variants_order_gate_delay() {
        // LVT < SVT < HVT in delay at identical sizing and load.
        let lib = lib();
        let d = |class| {
            gate_delay_with_output_edge_vt(
                &lib,
                CellKind::Nand2,
                VtTiming::of(class),
                6.0,
                20.0,
                60.0,
                Edge::Rising,
                Edge::Falling,
            )
            .delay_ps
        };
        assert!(d(VtClass::Lvt) < d(VtClass::Svt));
        assert!(d(VtClass::Svt) < d(VtClass::Hvt));
    }
}
