//! Process-level electrical parameters.

/// Electrical description of a CMOS process node.
///
/// Units throughout the workspace: capacitance in **fF**, time in **ps**,
/// width in **µm**, voltage in **V**.
///
/// # Example
///
/// ```
/// let p = pops_delay::Process::cmos025();
/// assert!(p.vtn_reduced() > 0.0 && p.vtn_reduced() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Unit transition time `τ` of the process (ps) — eq. (2)'s metric.
    pub tau_ps: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// NMOS threshold voltage (V).
    pub vtn: f64,
    /// PMOS threshold voltage magnitude (V).
    pub vtp: f64,
    /// `R`: current available in an NMOS relative to a PMOS of identical
    /// width (mobility ratio), eq. (3).
    pub r_ratio: f64,
    /// `C_REF`: input capacitance of the minimum-drive inverter (fF); the
    /// normalization unit of Fig. 1's x-axis.
    pub c_ref_ff: f64,
    /// Gate capacitance per µm of transistor width (fF/µm); converts input
    /// capacitance to the `ΣW` area metric the paper reports.
    pub cg_per_um: f64,
    /// Minimum drawn transistor width (µm).
    pub min_width_um: f64,
}

impl Process {
    /// The 0.25 µm-class process used for every experiment in the paper.
    ///
    /// Values are representative of a generic 2.5 V, 0.25 µm bulk CMOS
    /// node (the paper's foundry deck is proprietary): `τ` calibrated so a
    /// fanout-4 inverter delay lands near 90 ps.
    pub fn cmos025() -> Self {
        Process {
            tau_ps: 15.0,
            vdd: 2.5,
            vtn: 0.50,
            vtp: 0.55,
            r_ratio: 2.4,
            c_ref_ff: 2.7,
            cg_per_um: 1.8,
            min_width_um: 0.5,
        }
    }

    /// Reduced NMOS threshold `v_TN = V_TN / V_DD` (eq. 1).
    pub fn vtn_reduced(&self) -> f64 {
        self.vtn / self.vdd
    }

    /// Reduced PMOS threshold `v_TP = V_TP / V_DD` (eq. 1).
    pub fn vtp_reduced(&self) -> f64 {
        self.vtp / self.vdd
    }

    /// Convert an input capacitance (fF) into total transistor width (µm).
    pub fn width_um(&self, cin_ff: f64) -> f64 {
        cin_ff / self.cg_per_um
    }
}

impl Process {
    /// Derate this process into its slow corner: transitions 25 % slower,
    /// supply 10 % low, thresholds 10 % high. Geometry (`r_ratio`,
    /// `c_ref_ff`, `cg_per_um`, `min_width_um`) is corner-invariant.
    pub fn slow_corner(&self) -> Process {
        Process {
            tau_ps: self.tau_ps * 1.25,
            vdd: self.vdd * 0.9,
            vtn: self.vtn * 1.1,
            vtp: self.vtp * 1.1,
            ..self.clone()
        }
    }

    /// Derate this process into its fast corner: transitions 20 % faster,
    /// supply 10 % high, thresholds 10 % low.
    pub fn fast_corner(&self) -> Process {
        Process {
            tau_ps: self.tau_ps * 0.8,
            vdd: self.vdd * 1.1,
            vtn: self.vtn * 0.9,
            vtp: self.vtp * 0.9,
            ..self.clone()
        }
    }
}

impl Default for Process {
    fn default() -> Self {
        Process::cmos025()
    }
}

/// An ordered set of [`Process`] corners analyzed together.
///
/// Corner 0 is the **primary** corner: single-corner callers and legacy
/// queries read it, so it should be the typical point. The ordering is part
/// of the engine contract — per-corner timing slabs are stored
/// corner-innermost with this index.
///
/// # Example
///
/// ```
/// use pops_delay::{CornerSet, Process};
///
/// let corners = CornerSet::slow_typical_fast(Process::cmos025());
/// assert_eq!(corners.len(), 3);
/// assert_eq!(corners.primary(), &Process::cmos025());
/// assert!(corners.get(1).tau_ps > corners.primary().tau_ps); // slow
/// assert!(corners.get(2).tau_ps < corners.primary().tau_ps); // fast
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSet {
    corners: Vec<Process>,
}

impl CornerSet {
    /// A single-corner set: the degenerate case every pre-corner analysis
    /// path reduces to.
    pub fn single(process: Process) -> Self {
        CornerSet {
            corners: vec![process],
        }
    }

    /// The canonical three-corner set around `base`: `[typical, slow,
    /// fast]` with typical (= `base`) as the primary corner.
    pub fn slow_typical_fast(base: Process) -> Self {
        let slow = base.slow_corner();
        let fast = base.fast_corner();
        CornerSet {
            corners: vec![base, slow, fast],
        }
    }

    /// Number of corners.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }

    /// The primary (index-0) corner.
    pub fn primary(&self) -> &Process {
        &self.corners[0]
    }

    /// Corner `idx`.
    pub fn get(&self, idx: usize) -> &Process {
        &self.corners[idx]
    }

    /// Iterate the corners in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.corners.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_thresholds_are_physical() {
        let p = Process::cmos025();
        assert!((0.1..0.4).contains(&p.vtn_reduced()));
        assert!((0.1..0.4).contains(&p.vtp_reduced()));
    }

    #[test]
    fn width_conversion_is_linear() {
        let p = Process::cmos025();
        let w1 = p.width_um(1.0);
        let w5 = p.width_um(5.0);
        assert!((w5 - 5.0 * w1).abs() < 1e-12);
    }

    #[test]
    fn default_is_cmos025() {
        assert_eq!(Process::default(), Process::cmos025());
    }

    #[test]
    fn corners_derate_only_electrical_parameters() {
        let base = Process::cmos025();
        for corner in [base.slow_corner(), base.fast_corner()] {
            assert_eq!(corner.r_ratio, base.r_ratio);
            assert_eq!(corner.c_ref_ff, base.c_ref_ff);
            assert_eq!(corner.cg_per_um, base.cg_per_um);
            assert_eq!(corner.min_width_um, base.min_width_um);
        }
        assert!(base.slow_corner().tau_ps > base.tau_ps);
        assert!(base.fast_corner().tau_ps < base.tau_ps);
        // Reduced thresholds move opposite to supply at each corner.
        assert!(base.slow_corner().vtn_reduced() > base.vtn_reduced());
        assert!(base.fast_corner().vtn_reduced() < base.vtn_reduced());
    }

    #[test]
    fn corner_set_primary_is_typical() {
        let set = CornerSet::slow_typical_fast(Process::cmos025());
        assert_eq!(set.len(), 3);
        assert_eq!(set.primary(), &Process::cmos025());
        assert_eq!(set.get(1), &Process::cmos025().slow_corner());
        assert_eq!(set.get(2), &Process::cmos025().fast_corner());
        assert!(!set.is_empty());
        assert_eq!(set.iter().count(), 3);
    }

    #[test]
    fn single_corner_set() {
        let set = CornerSet::single(Process::cmos025());
        assert_eq!(set.len(), 1);
        assert_eq!(set.primary(), &Process::cmos025());
    }
}
