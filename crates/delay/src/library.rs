//! Per-cell electrical characterization: logical weights, configuration
//! ratios and parasitics — the `DW`, `k` and `C_par` of eqs. (2)–(3).

use std::fmt;
use std::sync::{Arc, OnceLock};

use pops_netlist::cell::{CellKind, VtClass, ALL_CELLS};

use crate::model::{Edge, GateDelay};
use crate::process::Process;

/// Electrical scaling of one threshold-voltage variant relative to the SVT
/// baseline, after the multi-Vt characterization of Kaur & Noor (arXiv
/// 1307.3017): lowering Vt raises drive current (faster transitions) and
/// raises subthreshold leakage exponentially; raising Vt does the reverse.
///
/// The SVT factors are exactly `1.0`, so an SVT instance reproduces the
/// unscaled model bit-for-bit.
///
/// ```
/// use pops_delay::VtTiming;
/// use pops_netlist::cell::VtClass;
///
/// let svt = VtTiming::of(VtClass::Svt);
/// assert_eq!((svt.drive_factor, svt.vt_scale, svt.leakage_factor), (1.0, 1.0, 1.0));
/// assert!(VtTiming::of(VtClass::Hvt).leakage_factor < 1.0);
/// assert!(VtTiming::of(VtClass::Lvt).drive_factor < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtTiming {
    /// Multiplier on the output-transition scale `τ·S`: < 1 for LVT (more
    /// drive, faster edges), > 1 for HVT.
    pub drive_factor: f64,
    /// Multiplier on the reduced threshold `v_T` in the slope term of
    /// eq. (1): the effective switching threshold tracks the device Vt.
    pub vt_scale: f64,
    /// Multiplier on subthreshold leakage relative to SVT. Leakage is
    /// exponential in Vt, so the spread is wide: ~6× up for LVT, ~0.15×
    /// for HVT.
    pub leakage_factor: f64,
}

impl VtTiming {
    /// Scaling factors for a Vt variant.
    pub fn of(class: VtClass) -> VtTiming {
        match class {
            VtClass::Lvt => VtTiming {
                drive_factor: 0.90,
                vt_scale: 0.85,
                leakage_factor: 6.0,
            },
            VtClass::Svt => VtTiming {
                drive_factor: 1.0,
                vt_scale: 1.0,
                leakage_factor: 1.0,
            },
            VtClass::Hvt => VtTiming {
                drive_factor: 1.18,
                vt_scale: 1.15,
                leakage_factor: 0.15,
            },
        }
    }
}

/// Electrical view of one library cell.
///
/// * `dw_hl` / `dw_lh` — the *logical weights* of eq. (3): the ratio of the
///   current available in an inverter to that of the cell's series
///   transistor array, for the falling (N stack) and rising (P stack)
///   output edges. A lone transistor has weight 1; `n` series devices
///   weigh slightly less than `n` because of velocity-saturation relief.
/// * `k` — the P/N configuration (width) ratio of the cell.
/// * `cpar_factor` — output parasitic (drain junction) capacitance as a
///   fraction of the cell input capacitance: `C_par = cpar_factor · C_IN`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// The cell this data describes.
    pub kind: CellKind,
    /// Falling-edge logical weight `DW_HL` (N pull-down stack).
    pub dw_hl: f64,
    /// Rising-edge logical weight `DW_LH` (P pull-up stack).
    pub dw_lh: f64,
    /// P/N width configuration ratio `k`.
    pub k: f64,
    /// Parasitic output capacitance per unit input capacitance.
    pub cpar_factor: f64,
}

impl CellTiming {
    /// Symmetry factor `S_HL` of eq. (3) for this cell.
    pub fn s_hl(&self) -> f64 {
        self.dw_hl * (1.0 + self.k) / 2.0
    }

    /// Symmetry factor `S_LH` of eq. (3) for this cell.
    pub fn s_lh(&self, process: &Process) -> f64 {
        self.dw_lh * process.r_ratio * (1.0 + self.k) / (2.0 * self.k)
    }

    /// Symmetry factor for a given output edge.
    pub fn s_factor(&self, process: &Process, output_edge: Edge) -> f64 {
        match output_edge {
            Edge::Falling => self.s_hl(),
            Edge::Rising => self.s_lh(process),
        }
    }

    /// Parasitic output capacitance (fF) at input capacitance `cin_ff`.
    pub fn cpar_ff(&self, cin_ff: f64) -> f64 {
        self.cpar_factor * cin_ff
    }

    /// Input-to-output coupling capacitance `C_M` (fF): half the input
    /// capacitance of the P (rising input) or N (falling input) device.
    pub fn miller_ff(&self, cin_ff: f64, input_edge: Edge) -> f64 {
        match input_edge {
            Edge::Rising => 0.5 * cin_ff * self.k / (1.0 + self.k),
            Edge::Falling => 0.5 * cin_ff / (1.0 + self.k),
        }
    }
}

/// Logical weight of `n` series devices: sub-linear in `n` because stacked
/// devices see reduced drain saturation (velocity-saturation relief).
fn stack_weight(n: usize) -> f64 {
    1.0 + 0.85 * (n as f64 - 1.0)
}

fn characterize(kind: CellKind) -> CellTiming {
    use CellKind::*;
    let dw_hl = stack_weight(kind.series_nmos());
    let dw_lh = stack_weight(kind.series_pmos());
    // Configuration ratio: inverting cells keep near-balanced rise/fall by
    // construction choice of the library; NORs widen P, NANDs narrow it.
    let k = match kind {
        Inv | Buf => 2.0,
        Nand2 | Nand3 | Nand4 => 1.3,
        Nor2 | Nor3 | Nor4 => 2.2,
        And2 | And3 | And4 => 1.5,
        Or2 | Or3 | Or4 => 2.2,
        Xor2 | Xnor2 => 2.0,
    };
    // Drain parasitics grow with the number of devices on the output node.
    let cpar_factor = match kind.num_inputs() {
        1 => {
            if kind == Buf {
                1.3
            } else {
                1.0
            }
        }
        2 => 1.5,
        3 => 2.0,
        _ => 2.5,
    };
    CellTiming {
        kind,
        dw_hl,
        dw_lh,
        k,
        cpar_factor,
    }
}

/// A characterized cell library: a [`Process`] plus [`CellTiming`] data for
/// every [`CellKind`].
///
/// # Example
///
/// ```
/// use pops_delay::Library;
/// use pops_netlist::CellKind;
///
/// let lib = Library::cmos025();
/// let nor3 = lib.cell(CellKind::Nor3);
/// let inv = lib.cell(CellKind::Inv);
/// // NOR3 stacks three PMOS devices: much weaker rising edge than INV.
/// assert!(nor3.s_lh(lib.process()) > 2.0 * inv.s_lh(lib.process()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    process: Process,
    cells: Vec<CellTiming>,
    flimits: PairSlots,
}

/// One lazily filled figure per ordered cell pair, at
/// `driver * ALL_CELLS.len() + gate`, shared by a library's clones.
/// Equality and `Debug` ignore the contents: a library is its process
/// and cells, whatever has been characterized so far.
#[derive(Clone)]
struct PairSlots(Arc<[OnceLock<Option<f64>>]>);

impl PartialEq for PairSlots {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for PairSlots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.0.iter().filter(|s| s.get().is_some()).count();
        write!(f, "PairSlots({filled} of {} filled)", self.0.len())
    }
}

/// Index of `kind` in [`ALL_CELLS`], which lists the cells in
/// declaration order.
fn cell_index(kind: CellKind) -> usize {
    kind as usize
}

impl Library {
    /// Build a library for an arbitrary process.
    pub fn new(process: Process) -> Self {
        let cells = ALL_CELLS.iter().map(|&k| characterize(k)).collect();
        let pairs = ALL_CELLS.len() * ALL_CELLS.len();
        Library {
            process,
            cells,
            flimits: PairSlots((0..pairs).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The default 0.25 µm library used throughout the paper reproduction.
    pub fn cmos025() -> Self {
        Library::new(Process::cmos025())
    }

    /// The process behind this library.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Electrical data for a cell.
    pub fn cell(&self, kind: CellKind) -> &CellTiming {
        &self.cells[cell_index(kind)]
    }

    /// Where this library keeps the `Flimit` of `gate` driven by
    /// `driver` (§4.1, Table 2), filled on first use by
    /// `pops_core::buffer::FlimitCache`. The figure depends on the
    /// library alone, which never changes, so one characterization
    /// serves every later lookup.
    pub fn flimit_slot(&self, driver: CellKind, gate: CellKind) -> &OnceLock<Option<f64>> {
        &self.flimits.0[cell_index(driver) * ALL_CELLS.len() + cell_index(gate)]
    }

    /// Minimum available input capacitance ("minimum drive") for any cell:
    /// the paper's `C_REF`.
    pub fn min_drive_ff(&self) -> f64 {
        self.process.c_ref_ff
    }

    /// Delay and output transition of `kind` with input capacitance
    /// `cin_ff`, external load `cl_ext_ff` (fF, parasitic added
    /// internally), incoming transition `tau_in_ps` and `input_edge`.
    ///
    /// Convenience wrapper over [`crate::model::gate_delay`].
    pub fn delay(
        &self,
        kind: CellKind,
        cin_ff: f64,
        cl_ext_ff: f64,
        tau_in_ps: f64,
        input_edge: Edge,
    ) -> GateDelay {
        crate::model::gate_delay(self, kind, cin_ff, cl_ext_ff, tau_in_ps, input_edge)
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::cmos025()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_characterized() {
        let lib = Library::cmos025();
        for (i, &kind) in ALL_CELLS.iter().enumerate() {
            assert_eq!(cell_index(kind), i);
            let c = lib.cell(kind);
            assert_eq!(c.kind, kind);
            assert!(c.dw_hl >= 1.0);
            assert!(c.dw_lh >= 1.0);
            assert!(c.k > 0.0);
            assert!(c.cpar_factor > 0.0);
        }
    }

    #[test]
    fn logical_weights_grow_with_stack_depth() {
        let lib = Library::cmos025();
        let hl = |k: CellKind| lib.cell(k).dw_hl;
        assert!(hl(CellKind::Nand2) < hl(CellKind::Nand3));
        assert!(hl(CellKind::Nand3) < hl(CellKind::Nand4));
        let lh = |k: CellKind| lib.cell(k).dw_lh;
        assert!(lh(CellKind::Nor2) < lh(CellKind::Nor3));
        assert!(lh(CellKind::Nor3) < lh(CellKind::Nor4));
    }

    #[test]
    fn inverter_is_the_reference_cell() {
        let lib = Library::cmos025();
        let inv = lib.cell(CellKind::Inv);
        assert_eq!(inv.dw_hl, 1.0);
        assert_eq!(inv.dw_lh, 1.0);
    }

    #[test]
    fn nor_rising_edge_is_weakest() {
        // This asymmetry is the root cause of Table 2's ordering: the NOR3
        // pull-up stacks three already-weak PMOS devices.
        let lib = Library::cmos025();
        let p = lib.process();
        let s = |k: CellKind| lib.cell(k).s_lh(p).max(lib.cell(k).s_hl());
        assert!(s(CellKind::Nor3) > s(CellKind::Nand3));
        assert!(s(CellKind::Nor2) > s(CellKind::Nand2));
        assert!(s(CellKind::Nand2) > s(CellKind::Inv));
    }

    #[test]
    fn miller_cap_splits_by_edge() {
        let lib = Library::cmos025();
        let inv = lib.cell(CellKind::Inv);
        let rising = inv.miller_ff(3.0, Edge::Rising);
        let falling = inv.miller_ff(3.0, Edge::Falling);
        // k = 2: P device is twice as wide, so rising-input coupling
        // (through the P gate-drain) is twice the falling-input coupling.
        assert!((rising - 2.0 * falling).abs() < 1e-12);
        assert!(rising + falling <= 0.5 * 3.0 + 1e-12);
    }

    #[test]
    fn vt_variants_order_speed_against_leakage() {
        let lvt = VtTiming::of(VtClass::Lvt);
        let svt = VtTiming::of(VtClass::Svt);
        let hvt = VtTiming::of(VtClass::Hvt);
        assert!(lvt.drive_factor < svt.drive_factor);
        assert!(svt.drive_factor < hvt.drive_factor);
        assert!(lvt.vt_scale < svt.vt_scale);
        assert!(svt.vt_scale < hvt.vt_scale);
        assert!(lvt.leakage_factor > svt.leakage_factor);
        assert!(svt.leakage_factor > hvt.leakage_factor);
        assert_eq!(svt.drive_factor, 1.0);
        assert_eq!(svt.vt_scale, 1.0);
        assert_eq!(svt.leakage_factor, 1.0);
    }

    #[test]
    fn s_factor_dispatches_on_edge() {
        let lib = Library::cmos025();
        let c = lib.cell(CellKind::Nand2);
        assert_eq!(c.s_factor(lib.process(), Edge::Falling), c.s_hl());
        assert_eq!(
            c.s_factor(lib.process(), Edge::Rising),
            c.s_lh(lib.process())
        );
    }
}
