//! Transient integration of a stage output node and waveform measurement.
//!
//! The output node obeys
//!
//! ```text
//! (C_node + C_M) · dV_out/dt = I_up(V_in, V_out) − I_down(V_in, V_out)
//!                              + C_M · dV_in/dt
//! ```
//!
//! where `C_node` is the stage parasitic plus external load and `C_M` the
//! input-to-output coupling (the same Miller capacitance eq. (1) models
//! analytically). Integration is classical RK4 at a fixed step tied to the
//! waveform sampling.

use crate::mosfet::ElectricalParams;
use crate::stage::EquivalentStage;

/// Unit conversion: `dV/dt [V/ps] = I[µA] / C[fF] · 1e-3`.
const UA_PER_FF_TO_V_PER_PS: f64 = 1e-3;

/// A uniformly sampled voltage waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    /// Time of the first sample (ps).
    pub t0_ps: f64,
    /// Sampling step (ps).
    pub dt_ps: f64,
    /// Voltage samples (V).
    pub samples: Vec<f64>,
}

impl Waveform {
    /// A linear ramp from `v_from` to `v_to` lasting `tau_ps`, preceded by
    /// a short hold at `v_from` and followed by a hold at `v_to`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ps <= 0` or `tau_ps < 0`.
    pub fn ramp(t0_ps: f64, tau_ps: f64, v_from: f64, v_to: f64, dt_ps: f64) -> Waveform {
        assert!(dt_ps > 0.0, "sampling step must be positive");
        assert!(tau_ps >= 0.0, "transition time must be non-negative");
        let hold = (5.0 * dt_ps).max(1.0);
        let total = hold + tau_ps + hold;
        let n = (total / dt_ps).ceil() as usize + 1;
        let samples = (0..n)
            .map(|i| {
                let t = i as f64 * dt_ps;
                if t <= hold || tau_ps == 0.0 {
                    if t <= hold {
                        v_from
                    } else {
                        v_to
                    }
                } else if t >= hold + tau_ps {
                    v_to
                } else {
                    v_from + (v_to - v_from) * (t - hold) / tau_ps
                }
            })
            .collect();
        Waveform {
            t0_ps,
            dt_ps,
            samples,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the waveform holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time of the last sample (ps).
    pub fn end_time_ps(&self) -> f64 {
        self.t0_ps + self.dt_ps * (self.samples.len().saturating_sub(1)) as f64
    }

    /// Interpolated value at time `t` (clamped to the end values).
    pub fn value_at(&self, t_ps: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let x = (t_ps - self.t0_ps) / self.dt_ps;
        if x <= 0.0 {
            return self.samples[0];
        }
        let i = x.floor() as usize;
        if i + 1 >= self.samples.len() {
            return *self.samples.last().expect("non-empty");
        }
        let frac = x - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Slope (V/ps) at time `t` by sample differencing.
    pub fn slope_at(&self, t_ps: f64) -> f64 {
        let h = self.dt_ps;
        (self.value_at(t_ps + 0.5 * h) - self.value_at(t_ps - 0.5 * h)) / h
    }

    /// First time the waveform crosses `level` in the given direction.
    pub fn crossing_time(&self, level: f64, rising: bool) -> Option<f64> {
        for i in 1..self.samples.len() {
            let (a, b) = (self.samples[i - 1], self.samples[i]);
            let crossed = if rising {
                a < level && b >= level
            } else {
                a > level && b <= level
            };
            if crossed {
                let frac = (level - a) / (b - a);
                return Some(self.t0_ps + (i as f64 - 1.0 + frac) * self.dt_ps);
            }
        }
        None
    }

    /// 20–80 % transition time extrapolated to the full swing
    /// (`Δt(20→80) / 0.6`), the standard SPICE measurement.
    pub fn transition_ps(&self, vdd: f64) -> Option<f64> {
        let first = self.samples.first()?;
        let rising = self.samples.last()? > first;
        let (lo, hi) = (0.2 * vdd, 0.8 * vdd);
        let (t_lo, t_hi) = if rising {
            (self.crossing_time(lo, true)?, self.crossing_time(hi, true)?)
        } else {
            (
                self.crossing_time(hi, false)?,
                self.crossing_time(lo, false)?,
            )
        };
        Some((t_hi - t_lo) / 0.6)
    }

    /// The last sample value.
    pub fn final_value(&self) -> f64 {
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// Mirror the waveform around `vdd/2` (polarity restoration for
    /// behaviorally non-inverting cells).
    pub fn mirrored(&self, vdd: f64) -> Waveform {
        Waveform {
            t0_ps: self.t0_ps,
            dt_ps: self.dt_ps,
            samples: self.samples.iter().map(|&v| vdd - v).collect(),
        }
    }
}

/// Maximum number of integration steps before declaring non-settlement.
const MAX_STEPS: usize = 400_000;

/// Integrate the output waveform of `stage` driven by `vin` into an
/// external load of `c_load_ext_ff` (the stage's own parasitic is added
/// internally).
///
/// The initial output state is the DC solution for the initial input
/// value. Integration continues past the end of the input until the
/// output settles within 0.1 % of a rail (or `MAX_STEPS` elapse).
///
/// # Example
///
/// ```
/// use pops_delay::Library;
/// use pops_netlist::CellKind;
/// use pops_spice::{simulate_stage, ElectricalParams, EquivalentStage, Waveform};
///
/// let params = ElectricalParams::cmos025();
/// let lib = Library::cmos025();
/// let stage = EquivalentStage::from_cell(&params, &lib, CellKind::Inv, 5.0);
/// let vin = Waveform::ramp(0.0, 40.0, 0.0, params.vdd, 0.1);
/// let vout = simulate_stage(&params, &stage, 10.0, &vin);
/// // Rising input, inverting stage: output ends low.
/// assert!(vout.final_value() < 0.1 * params.vdd);
/// ```
pub fn simulate_stage(
    params: &ElectricalParams,
    stage: &EquivalentStage,
    c_load_ext_ff: f64,
    vin: &Waveform,
) -> Waveform {
    assert!(c_load_ext_ff >= 0.0, "load must be non-negative");
    assert!(!vin.is_empty(), "input waveform must not be empty");
    let vdd = params.vdd;
    let dt = vin.dt_ps;
    let c_node = stage.cpar_ff + c_load_ext_ff;
    let c_total = c_node + stage.miller_ff;

    // DC initial condition from the initial input level (inverting stage
    // orientation; non-inverting polarity is restored by the caller).
    let vin0 = vin.samples[0];
    let mut vout = if vin0 < 0.5 * vdd { vdd } else { 0.0 };

    // dV/dt = (I[µA]·1e-3 + C_M·dVin/dt) / (C_node + C_M)  [V/ps]
    let f = |t: f64, v: f64| -> f64 {
        let vi = vin.value_at(t);
        let i = stage.output_current(params, vi, v.clamp(0.0, vdd));
        (i * UA_PER_FF_TO_V_PER_PS + stage.miller_ff * vin.slope_at(t)) / c_total
    };

    let mut t = vin.t0_ps;
    let mut samples = vec![vout];
    let settle_band = 0.001 * vdd;
    for step in 0..MAX_STEPS {
        // Classical RK4.
        let k1 = f(t, vout);
        let k2 = f(t + 0.5 * dt, vout + 0.5 * dt * k1);
        let k3 = f(t + 0.5 * dt, vout + 0.5 * dt * k2);
        let k4 = f(t + dt, vout + dt * k3);
        vout += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        vout = vout.clamp(-0.1 * vdd, 1.1 * vdd);
        t += dt;
        samples.push(vout);

        let input_done = t >= vin.end_time_ps();
        let near_rail = vout < settle_band || vout > vdd - settle_band;
        // A node can sit *past* a rail transiently (Miller kickback) while
        // still being driven: require the derivative to vanish too.
        let quiescent = f(t, vout).abs() < 1e-7;
        if input_done && near_rail && quiescent {
            break;
        }
        if step + 1 == MAX_STEPS {
            // Return what we have; measurements will report None and
            // callers surface the issue.
            break;
        }
    }

    Waveform {
        t0_ps: vin.t0_ps,
        dt_ps: dt,
        samples,
    }
}

/// 50 %-to-50 % propagation delay between two waveforms (ps).
///
/// Directions are inferred from each waveform's endpoints.
pub fn propagation_delay_ps(vin: &Waveform, vout: &Waveform, vdd: f64) -> Option<f64> {
    let in_rising = vin.final_value() > *vin.samples.first()?;
    let out_rising = vout.final_value() > *vout.samples.first()?;
    let t_in = vin.crossing_time(0.5 * vdd, in_rising)?;
    let t_out = vout.crossing_time(0.5 * vdd, out_rising)?;
    Some(t_out - t_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_delay::Library;
    use pops_netlist::CellKind;

    fn setup() -> (ElectricalParams, Library) {
        (ElectricalParams::cmos025(), Library::cmos025())
    }

    fn inv_stage(cin: f64) -> (ElectricalParams, EquivalentStage) {
        let (p, lib) = setup();
        let s = EquivalentStage::from_cell(&p, &lib, CellKind::Inv, cin);
        (p, s)
    }

    #[test]
    fn ramp_shape() {
        let w = Waveform::ramp(0.0, 100.0, 0.0, 2.5, 0.5);
        assert_eq!(w.samples[0], 0.0);
        assert_eq!(w.final_value(), 2.5);
        let t50 = w.crossing_time(1.25, true).unwrap();
        // Mid-swing is reached halfway through the ramp (after the hold).
        let hold = (5.0 * 0.5f64).max(1.0);
        assert!((t50 - (hold + 50.0)).abs() < 1.0, "t50 = {t50}");
    }

    #[test]
    fn inverter_discharges_on_rising_input() {
        let (p, s) = inv_stage(5.0);
        let vin = Waveform::ramp(0.0, 50.0, 0.0, p.vdd, 0.1);
        let vout = simulate_stage(&p, &s, 10.0, &vin);
        assert!(vout.samples[0] > 0.99 * p.vdd);
        assert!(vout.final_value() < 0.01 * p.vdd);
    }

    #[test]
    fn inverter_charges_on_falling_input() {
        let (p, s) = inv_stage(5.0);
        let vin = Waveform::ramp(0.0, 50.0, p.vdd, 0.0, 0.1);
        let vout = simulate_stage(&p, &s, 10.0, &vin);
        assert!(vout.samples[0] < 0.01 * p.vdd);
        assert!(vout.final_value() > 0.99 * p.vdd);
    }

    #[test]
    fn heavier_load_slows_the_stage() {
        let (p, s) = inv_stage(5.0);
        let vin = Waveform::ramp(0.0, 40.0, 0.0, p.vdd, 0.1);
        let d = |cl: f64| {
            let vout = simulate_stage(&p, &s, cl, &vin);
            propagation_delay_ps(&vin, &vout, p.vdd).unwrap()
        };
        assert!(d(40.0) > d(10.0));
        assert!(d(160.0) > d(40.0));
    }

    #[test]
    fn bigger_stage_drives_faster() {
        let (p, lib) = setup();
        let vin = Waveform::ramp(0.0, 40.0, 0.0, p.vdd, 0.1);
        let d = |cin: f64| {
            let s = EquivalentStage::from_cell(&p, &lib, CellKind::Inv, cin);
            let vout = simulate_stage(&p, &s, 60.0, &vin);
            propagation_delay_ps(&vin, &vout, p.vdd).unwrap()
        };
        assert!(d(10.0) < d(3.0));
    }

    #[test]
    fn transition_measurement_scales_with_load() {
        let (p, s) = inv_stage(5.0);
        let vin = Waveform::ramp(0.0, 40.0, 0.0, p.vdd, 0.1);
        let tr = |cl: f64| {
            simulate_stage(&p, &s, cl, &vin)
                .transition_ps(p.vdd)
                .unwrap()
        };
        let t1 = tr(10.0);
        let t4 = tr(40.0);
        assert!(t4 > 2.0 * t1, "transition {t1} -> {t4}");
    }

    #[test]
    fn mirrored_waveform_flips_rails() {
        let w = Waveform::ramp(0.0, 10.0, 0.0, 2.5, 0.5);
        let m = w.mirrored(2.5);
        assert!((m.samples[0] - 2.5).abs() < 1e-12);
        assert!(m.final_value().abs() < 1e-12);
    }

    #[test]
    fn nor3_slower_than_inverter_rising() {
        // The Table 2 physics: a NOR3 producing a rising output through
        // three series PMOS is far slower than an inverter at equal size.
        let (p, lib) = setup();
        let vin = Waveform::ramp(0.0, 40.0, p.vdd, 0.0, 0.1); // falling input
        let d = |cell: CellKind| {
            let s = EquivalentStage::from_cell(&p, &lib, cell, 6.0);
            let vout = simulate_stage(&p, &s, 30.0, &vin);
            propagation_delay_ps(&vin, &vout, p.vdd).unwrap()
        };
        assert!(d(CellKind::Nor3) > 1.5 * d(CellKind::Inv));
    }

    #[test]
    fn value_interpolation_is_linear() {
        let w = Waveform {
            t0_ps: 0.0,
            dt_ps: 1.0,
            samples: vec![0.0, 1.0, 2.0],
        };
        assert!((w.value_at(0.5) - 0.5).abs() < 1e-12);
        assert!((w.value_at(1.75) - 1.75).abs() < 1e-12);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(9.0), 2.0);
    }
}
