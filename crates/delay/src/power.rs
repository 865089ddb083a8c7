//! Leakage power.
//!
//! The paper uses total transistor width `ΣW` as its area *and* power
//! metric ("minimum area/power cost"): the switched capacitance of static
//! CMOS is proportional to the implemented widths. Subthreshold leakage
//! is proportional to width too, scaled by the gate's Vt variant; the
//! flow's high-Vt pass reports it through [`leakage_nw`].

use pops_netlist::cell::VtClass;

use crate::library::VtTiming;
use crate::process::Process;

/// Baseline subthreshold leakage per µm of SVT transistor width (nW/µm),
/// representative of a 0.25 µm 2.5 V node at nominal temperature. The Vt
/// variant scales this by [`VtTiming::leakage_factor`] (leakage is
/// exponential in Vt, per arXiv 1307.3017).
pub const BASE_LEAKAGE_NW_PER_UM: f64 = 0.4;

/// Static (subthreshold) leakage of one gate instance (nW), keyed by its
/// Vt variant and implemented width.
///
/// Width is derived from the instance's input capacitance through the
/// process's `cg_per_um`, the same `ΣW` bookkeeping the area metric uses —
/// so leakage, like dynamic power, is proportional to the width the sizer
/// actually spends.
///
/// # Example
///
/// ```
/// use pops_delay::power::leakage_nw;
/// use pops_delay::Process;
/// use pops_netlist::cell::VtClass;
///
/// let p = Process::cmos025();
/// let svt = leakage_nw(&p, VtClass::Svt, 2.7);
/// let hvt = leakage_nw(&p, VtClass::Hvt, 2.7);
/// assert!(hvt < svt); // high-Vt leaks less at the same width
/// ```
pub fn leakage_nw(process: &Process, vt_class: VtClass, cin_ff: f64) -> f64 {
    debug_assert!(cin_ff > 0.0, "input capacitance must be positive");
    process.width_um(cin_ff) * BASE_LEAKAGE_NW_PER_UM * VtTiming::of(vt_class).leakage_factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_orders_by_vt_and_scales_with_width() {
        let p = Process::cmos025();
        let lvt = leakage_nw(&p, VtClass::Lvt, 2.7);
        let svt = leakage_nw(&p, VtClass::Svt, 2.7);
        let hvt = leakage_nw(&p, VtClass::Hvt, 2.7);
        assert!(lvt > svt && svt > hvt, "{lvt} > {svt} > {hvt}");
        // Linear in width at fixed Vt.
        let double = leakage_nw(&p, VtClass::Svt, 5.4);
        assert!((double - 2.0 * svt).abs() < 1e-12);
        // Magnitude: a min-size SVT gate leaks well under a µW.
        assert!(svt > 0.0 && svt < 1000.0);
    }
}
