//! The optimization protocol (Fig. 7) — the paper's headline deliverable.
//!
//! ```text
//! Characterization of the optimization space
//!   • library characterization (Flimit determination)
//!   • path classification, delay bounds Tmax/Tmin
//! Delay constraint Tc distribution
//!   • Tc < Tmin                → structure modification (buffers /
//!                                De Morgan restructuring), re-bound
//!   • weak   (Tc > 2.5·Tmin)   → gate sizing
//!   • medium (1.2 < Tc/Tmin < 2.5) → buffer insertion where it saves area
//!   • hard   (Tc < 1.2·Tmin)   → buffer insertion & global sizing
//! ```

use pops_delay::{Library, TimedPath};

use crate::bounds::{delay_bounds, DelayBounds};
use crate::buffer::insert_buffers;
use crate::error::OptimizeError;
use crate::restructure::restructure_critical;
use crate::sensitivity::{distribute_from_tmin, SensitivityOptions};

/// The paper's constraint domains (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintClass {
    /// `Tc > 2.5·Tmin` — sizing alone is optimal.
    Weak,
    /// `1.2·Tmin ≤ Tc ≤ 2.5·Tmin` — buffers optional, may save area.
    Medium,
    /// `Tmin ≤ Tc < 1.2·Tmin` — buffers plus global sizing.
    Hard,
}

/// Boundary between hard and medium constraint domains, in units of Tmin.
pub const HARD_BOUNDARY: f64 = 1.2;
/// Boundary between medium and weak constraint domains, in units of Tmin.
pub const WEAK_BOUNDARY: f64 = 2.5;

/// Classify a feasible constraint against `Tmin` (Fig. 6's domains).
///
/// # Panics
///
/// Panics if `tc_ps < tmin_ps` (infeasible constraints have no class;
/// the protocol handles them by structure modification first).
pub fn classify(tc_ps: f64, tmin_ps: f64) -> ConstraintClass {
    assert!(
        tc_ps >= tmin_ps,
        "cannot classify an infeasible constraint (tc {tc_ps} < tmin {tmin_ps})"
    );
    let ratio = tc_ps / tmin_ps;
    if ratio > WEAK_BOUNDARY {
        ConstraintClass::Weak
    } else if ratio >= HARD_BOUNDARY {
        ConstraintClass::Medium
    } else {
        ConstraintClass::Hard
    }
}

/// Which technique the protocol ended up applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Constant-sensitivity gate sizing on the unmodified path.
    SizingOnly,
    /// Buffer insertion followed by global constant-sensitivity sizing.
    BufferAndSizing,
    /// De Morgan restructuring followed by global sizing.
    RestructureAndSizing,
}

/// Options steering the protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOptions {
    /// Allow buffer insertion (§4.1).
    pub allow_buffers: bool,
    /// Allow De Morgan restructuring (§4.2).
    pub allow_restructuring: bool,
    /// Inner solver options.
    pub sensitivity: SensitivityOptions,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions {
            allow_buffers: true,
            allow_restructuring: true,
            sensitivity: SensitivityOptions::default(),
        }
    }
}

/// Outcome of a protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// Constraint class relative to the original path's `Tmin`.
    pub class: ConstraintClass,
    /// Technique that produced the cheapest implementation.
    pub technique: Technique,
    /// The (possibly modified) path that was finally sized.
    pub path: TimedPath,
    /// Final sizing of that path.
    pub sizes: Vec<f64>,
    /// Achieved delay (ps).
    pub delay_ps: f64,
    /// Achieved slack against the requested constraint (ps):
    /// `tc − delay`, ≥ 0 within the solver tolerance. Callers driving
    /// the protocol from a slack view (per-endpoint required times)
    /// read the margin back from here.
    pub slack_ps: f64,
    /// Total input capacitance (fF), including any off-path side
    /// inverters introduced by restructuring.
    pub total_cin_ff: f64,
    /// `ΣW` in µm (the paper's reported area metric).
    pub area_um: f64,
    /// Delay bounds of the *original* path.
    pub bounds: DelayBounds,
    /// Buffers inserted (0 when sizing only).
    pub inserted_buffers: usize,
    /// NOR gates restructured (0 when not applied).
    pub restructured_gates: usize,
}

/// One candidate implementation considered by the protocol. The path it
/// was sized on is *not* stored: only the winning candidate's path is
/// materialized (moved, or cloned once for the unmodified input), so the
/// losing implementations cost no path copies.
struct Candidate {
    technique: Technique,
    sizes: Vec<f64>,
    delay_ps: f64,
    total_cin_ff: f64,
    inserted_buffers: usize,
    restructured_gates: usize,
}

/// Run the Fig. 7 optimization protocol.
///
/// # Errors
///
/// [`OptimizeError::InvalidConstraint`] when `tc_ps` is NaN, zero or
/// negative; [`OptimizeError::Infeasible`] when it is below the minimum
/// delay of every allowed implementation (sized, buffered,
/// restructured).
pub fn optimize(
    lib: &Library,
    path: &TimedPath,
    tc_ps: f64,
    options: &ProtocolOptions,
) -> Result<ProtocolOutcome, OptimizeError> {
    if tc_ps.is_nan() || tc_ps <= 0.0 {
        return Err(OptimizeError::InvalidConstraint { tc_ps });
    }
    let bounds = delay_bounds(lib, path);

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut best_tmin = bounds.tmin_ps;

    // Each candidate is sized from the Tmin solved for its own path, so it
    // is feasible exactly when tc ≥ that Tmin.
    let size = |p: &TimedPath, tmin_ps: f64, tmin_sizes: Vec<f64>| {
        distribute_from_tmin(lib, p, tc_ps, tmin_ps, tmin_sizes, &options.sensitivity).ok()
    };

    // Candidate 1: sizing with structure conservation (§3).
    if let Some(sol) = size(path, bounds.tmin_ps, bounds.tmin_sizes.clone()) {
        candidates.push(Candidate {
            technique: Technique::SizingOnly,
            sizes: sol.sizes,
            delay_ps: sol.delay_ps,
            total_cin_ff: sol.total_cin_ff,
            inserted_buffers: 0,
            restructured_gates: 0,
        });
    }

    let class_ratio = tc_ps / bounds.tmin_ps;
    let consider_buffers =
        options.allow_buffers && (class_ratio < WEAK_BOUNDARY || candidates.is_empty());
    let mut buffered_path = None;
    if consider_buffers {
        // Candidate 2: buffer insertion + global sizing (§4.1).
        let (buffered, buffered_tmin) = insert_buffers(lib, path);
        best_tmin = best_tmin.min(buffered_tmin.delay_ps);
        if buffered.buffer_count() > 0 {
            if let Some(sol) = size(&buffered.path, buffered_tmin.delay_ps, buffered_tmin.sizes) {
                candidates.push(Candidate {
                    technique: Technique::BufferAndSizing,
                    sizes: sol.sizes,
                    delay_ps: sol.delay_ps,
                    total_cin_ff: sol.total_cin_ff,
                    inserted_buffers: buffered.buffer_count(),
                    restructured_gates: 0,
                });
                buffered_path = Some(buffered.path);
            }
        }
    }

    let consider_restructure =
        options.allow_restructuring && (class_ratio < WEAK_BOUNDARY || candidates.is_empty());
    let mut restructured_path = None;
    if consider_restructure {
        // Candidate 3: critical-node De Morgan restructuring + global
        // sizing (§4.2).
        let restructured = restructure_critical(lib, path);
        if restructured.modified() {
            let t = restructured.tmin;
            best_tmin = best_tmin.min(t.delay_ps);
            if let Some(sol) = size(&restructured.path, t.delay_ps, t.sizes) {
                candidates.push(Candidate {
                    technique: Technique::RestructureAndSizing,
                    sizes: sol.sizes,
                    delay_ps: sol.delay_ps,
                    total_cin_ff: sol.total_cin_ff + restructured.side_inverter_cin_ff,
                    inserted_buffers: restructured.inserted_buffers,
                    restructured_gates: restructured.replaced_nors,
                });
                restructured_path = Some(restructured.path);
            }
        }
    }

    let Some(best) = candidates
        .into_iter()
        .min_by(|a, b| a.total_cin_ff.total_cmp(&b.total_cin_ff))
    else {
        return Err(OptimizeError::Infeasible {
            tc_ps,
            tmin_ps: best_tmin,
        });
    };

    // Materialize only the winner's path: modified paths are moved out of
    // their builders; the unmodified input is cloned at most once.
    let final_path = match best.technique {
        Technique::SizingOnly => path.clone(),
        Technique::BufferAndSizing => {
            buffered_path.expect("buffer candidate implies a buffered path")
        }
        Technique::RestructureAndSizing => {
            restructured_path.expect("restructure candidate implies a restructured path")
        }
    };

    // Classification is reported against the original Tmin; an originally
    // infeasible constraint that structure modification rescued is Hard
    // by definition.
    let class = if tc_ps < bounds.tmin_ps {
        ConstraintClass::Hard
    } else {
        classify(tc_ps, bounds.tmin_ps)
    };

    Ok(ProtocolOutcome {
        class,
        technique: best.technique,
        area_um: lib.process().width_um(best.total_cin_ff),
        path: final_path,
        sizes: best.sizes,
        delay_ps: best.delay_ps,
        slack_ps: tc_ps - best.delay_ps,
        total_cin_ff: best.total_cin_ff,
        bounds,
        inserted_buffers: best.inserted_buffers,
        restructured_gates: best.restructured_gates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_delay::PathStage;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn loaded_path() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::with_load(Nor3, 90.0),
                PathStage::new(Nand2),
                PathStage::new(Inv),
                PathStage::with_load(Nor2, 70.0),
                PathStage::new(Nand3),
                PathStage::new(Inv),
            ],
            2.7,
            180.0,
        )
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(300.0, 100.0), ConstraintClass::Weak);
        assert_eq!(classify(251.0, 100.0), ConstraintClass::Weak);
        assert_eq!(classify(200.0, 100.0), ConstraintClass::Medium);
        assert_eq!(classify(119.0, 100.0), ConstraintClass::Hard);
        assert_eq!(classify(120.0, 100.0), ConstraintClass::Medium);
        assert_eq!(classify(250.0, 100.0), ConstraintClass::Medium);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn classifying_infeasible_panics() {
        classify(99.0, 100.0);
    }

    #[test]
    fn weak_constraint_uses_sizing_only() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let out = optimize(&lib, &path, 3.0 * b.tmin_ps, &ProtocolOptions::default()).unwrap();
        assert_eq!(out.class, ConstraintClass::Weak);
        assert_eq!(out.technique, Technique::SizingOnly);
        assert!(out.delay_ps <= 3.0 * b.tmin_ps * 1.0001);
    }

    #[test]
    fn hard_constraint_meets_tc() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let tc = 1.1 * b.tmin_ps;
        let out = optimize(&lib, &path, tc, &ProtocolOptions::default()).unwrap();
        assert_eq!(out.class, ConstraintClass::Hard);
        assert!(out.delay_ps <= tc * 1.0001);
    }

    #[test]
    fn sub_tmin_constraint_is_rescued_by_structure_modification() {
        // Tc below the sizing-only Tmin: only buffers/restructuring can
        // save it (the paper's "structure modification" branch).
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let tc = 0.97 * b.tmin_ps;
        let out = optimize(&lib, &path, tc, &ProtocolOptions::default()).unwrap();
        assert_eq!(out.class, ConstraintClass::Hard);
        assert!(out.delay_ps <= tc * 1.0001);
        assert!(
            out.inserted_buffers > 0 || out.restructured_gates > 0,
            "structure must have been modified"
        );
    }

    #[test]
    fn constraints_just_above_tmin_are_met() {
        // On this 32-stage path a constraint just above Tmin is feasible;
        // it must be met, and with less area than the Tmin sizing.
        use CellKind::*;
        let lib = lib();
        let cycle = [Inv, Nand2, Nor2, Inv, Nand3, Nor3];
        let stages = (0..32)
            .map(|i| PathStage::with_load(cycle[i % cycle.len()], (i % 3) as f64 * 4.0))
            .collect();
        let path = TimedPath::new(stages, lib.min_drive_ff(), 120.0);
        let b = delay_bounds(&lib, &path);
        let tmin_area: f64 = b.tmin_sizes.iter().sum();
        let tc = 1.001 * b.tmin_ps;
        let conserve = ProtocolOptions {
            allow_buffers: false,
            allow_restructuring: false,
            ..Default::default()
        };
        for opts in [ProtocolOptions::default(), conserve] {
            let out = optimize(&lib, &path, tc, &opts)
                .unwrap_or_else(|e| panic!("tc {tc} ≥ Tmin {}: {e}", b.tmin_ps));
            assert!(out.delay_ps <= tc, "delay {} > tc {tc}", out.delay_ps);
            assert!(
                out.total_cin_ff < tmin_area,
                "area {} not below the Tmin sizing's {tmin_area}",
                out.total_cin_ff
            );
        }
    }

    #[test]
    fn optimize_returns_a_result_on_random_accepted_paths() {
        // Any path `TimedPath::new` accepts gets an outcome or a typed
        // error at, below and well above its Tmin, never a panic. Short
        // paths keep the uncached `flimit` characterizations affordable.
        let lib = lib();
        let mut rng = pops_netlist::rng::SplitMix64::new(0x0B7_1F17);
        for case in 0..50 {
            let path = crate::bounds::tests::random_path(&mut rng, 8);
            let tmin_ps = delay_bounds(&lib, &path).tmin_ps;
            for factor in [0.5, 1.0, 3.0] {
                let tc = factor * tmin_ps;
                match optimize(&lib, &path, tc, &ProtocolOptions::default()) {
                    Ok(out) => assert!(
                        out.delay_ps <= tc * 1.0001,
                        "path {case} at {factor}·Tmin: delay {} > tc {tc}",
                        out.delay_ps
                    ),
                    Err(OptimizeError::Infeasible { tc_ps, tmin_ps }) => assert!(
                        tc_ps < tmin_ps,
                        "path {case} at {factor}·Tmin: infeasible with tc {tc_ps} ≥ {tmin_ps}"
                    ),
                    Err(e) => panic!("path {case} at {factor}·Tmin: {e}"),
                }
            }
        }
    }

    #[test]
    fn invalid_constraints_are_typed_errors() {
        let lib = lib();
        let path = loaded_path();
        for tc in [f64::NAN, 0.0, -1.0] {
            let err = optimize(&lib, &path, tc, &ProtocolOptions::default()).unwrap_err();
            assert!(
                matches!(err, OptimizeError::InvalidConstraint { tc_ps } if tc_ps.to_bits() == tc.to_bits()),
                "tc {tc}: got {err}"
            );
        }
    }

    #[test]
    fn impossible_constraint_errors_with_best_tmin() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let err = optimize(&lib, &path, 0.2 * b.tmin_ps, &ProtocolOptions::default()).unwrap_err();
        match err {
            OptimizeError::Infeasible { tmin_ps, .. } => {
                // The reported floor must not exceed the sizing-only Tmin
                // (structure modification can only lower it).
                assert!(tmin_ps <= b.tmin_ps * 1.0001);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn disabling_modifications_restricts_to_sizing() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let opts = ProtocolOptions {
            allow_buffers: false,
            allow_restructuring: false,
            ..Default::default()
        };
        let out = optimize(&lib, &path, 1.15 * b.tmin_ps, &opts).unwrap();
        assert_eq!(out.technique, Technique::SizingOnly);
        // And a sub-Tmin constraint now genuinely fails.
        assert!(optimize(&lib, &path, 0.97 * b.tmin_ps, &opts).is_err());
    }

    #[test]
    fn medium_domain_buffering_never_loses_on_area() {
        // Fig. 6/8: in the medium domain the protocol picks the cheaper of
        // sizing vs buffering — so allowing buffers can only help.
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let tc = 1.5 * b.tmin_ps;
        let with = optimize(&lib, &path, tc, &ProtocolOptions::default()).unwrap();
        let without = optimize(
            &lib,
            &path,
            tc,
            &ProtocolOptions {
                allow_buffers: false,
                allow_restructuring: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.total_cin_ff <= without.total_cin_ff * 1.0001);
    }

    #[test]
    fn outcome_reports_the_achieved_slack() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let tc = 1.4 * b.tmin_ps;
        let out = optimize(&lib, &path, tc, &ProtocolOptions::default()).unwrap();
        assert_eq!(out.slack_ps, tc - out.delay_ps);
        assert!(out.slack_ps >= -1e-4 * tc, "slack {}", out.slack_ps);
    }

    #[test]
    fn outcome_area_matches_width_conversion() {
        let lib = lib();
        let path = loaded_path();
        let b = delay_bounds(&lib, &path);
        let out = optimize(&lib, &path, 2.0 * b.tmin_ps, &ProtocolOptions::default()).unwrap();
        let expect = lib.process().width_um(out.total_cin_ff);
        assert!((out.area_um - expect).abs() < 1e-9);
    }
}
