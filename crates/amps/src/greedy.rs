//! TILOS-style greedy iterative sizing (refs. \[1\]–\[2\] of the paper).
//!
//! The classical industrial loop: evaluate the timing, bump the size of
//! the gate giving the best delay improvement per unit of added area,
//! repeat until the constraint is met. Robust and simple — but it needs
//! one full timing evaluation per candidate move per iteration, which is
//! exactly the "processing time explosive" behaviour Table 1 quantifies
//! against the deterministic constant-sensitivity method.

use pops_core::OptimizeError;
use pops_delay::{Library, TimedPath};

/// Options for the greedy sizer.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOptions {
    /// Multiplicative size step per accepted move.
    pub step: f64,
    /// Upper size bound as a multiple of the minimum drive.
    pub max_size_factor: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Run the post-pass that shrinks gates back while the constraint
    /// still holds (area recovery).
    pub area_recovery: bool,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            step: 1.15,
            max_size_factor: 4000.0,
            max_iterations: 200_000,
            area_recovery: true,
        }
    }
}

/// Result of a greedy run.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyResult {
    /// Final sizing.
    pub sizes: Vec<f64>,
    /// Achieved delay (ps).
    pub delay_ps: f64,
    /// Total input capacitance (fF).
    pub total_cin_ff: f64,
    /// Accepted moves.
    pub iterations: usize,
    /// Full path-delay evaluations performed (the CPU-cost driver).
    pub evaluations: usize,
}

/// Greedily minimize the path delay (the baseline for Fig. 2's `Tmin`).
///
/// Accepts the move with the best absolute delay gain each iteration and
/// stops when no upsizing improves the delay.
pub fn greedy_min_delay(lib: &Library, path: &TimedPath, options: &GreedyOptions) -> GreedyResult {
    let cref = lib.min_drive_ff();
    let cmax = cref * options.max_size_factor;
    let mut sizes = path.min_sizes(lib);
    let mut delay = path.delay(lib, &sizes).total_ps;
    let mut evaluations = 1usize;
    let mut iterations = 0usize;

    while iterations < options.max_iterations {
        let mut best: Option<(usize, f64, f64)> = None; // (stage, new delay, new size)
        for i in 1..path.len() {
            let trial_size = (sizes[i] * options.step).min(cmax);
            if trial_size <= sizes[i] {
                continue;
            }
            let old = sizes[i];
            sizes[i] = trial_size;
            let d = path.delay(lib, &sizes).total_ps;
            evaluations += 1;
            sizes[i] = old;
            if d < delay && best.map(|(_, bd, _)| d < bd).unwrap_or(true) {
                best = Some((i, d, trial_size));
            }
        }
        match best {
            Some((i, d, s)) => {
                sizes[i] = s;
                delay = d;
                iterations += 1;
            }
            None => break,
        }
    }

    GreedyResult {
        total_cin_ff: sizes.iter().sum(),
        delay_ps: delay,
        sizes,
        iterations,
        evaluations,
    }
}

/// Greedily size until `tc_ps` is met, choosing each move by the best
/// delay-gain/area-cost ratio (the TILOS criterion), then optionally
/// recover area by shrinking gates whose size the constraint does not
/// actually need.
///
/// # Errors
///
/// [`OptimizeError::Infeasible`] if the budget is exhausted or no move
/// improves the delay before `tc_ps` is reached.
pub fn greedy_size_for_constraint(
    lib: &Library,
    path: &TimedPath,
    tc_ps: f64,
    options: &GreedyOptions,
) -> Result<GreedyResult, OptimizeError> {
    let cref = lib.min_drive_ff();
    let cmax = cref * options.max_size_factor;
    let mut sizes = path.min_sizes(lib);
    let mut delay = path.delay(lib, &sizes).total_ps;
    let mut evaluations = 1usize;
    let mut iterations = 0usize;

    while delay > tc_ps {
        if iterations >= options.max_iterations {
            return Err(OptimizeError::NoConvergence {
                solver: "greedy_size_for_constraint",
                iterations,
            });
        }
        let mut best: Option<(usize, f64, f64, f64)> = None; // stage, ratio, delay, size
        for i in 1..path.len() {
            let trial_size = (sizes[i] * options.step).min(cmax);
            if trial_size <= sizes[i] {
                continue;
            }
            let old = sizes[i];
            sizes[i] = trial_size;
            let d = path.delay(lib, &sizes).total_ps;
            evaluations += 1;
            sizes[i] = old;
            let gain = delay - d;
            let cost = trial_size - old;
            if gain > 0.0 {
                let ratio = gain / cost;
                if best.map(|(_, r, _, _)| ratio > r).unwrap_or(true) {
                    best = Some((i, ratio, d, trial_size));
                }
            }
        }
        match best {
            Some((i, _, d, s)) => {
                sizes[i] = s;
                delay = d;
                iterations += 1;
            }
            None => {
                return Err(OptimizeError::Infeasible {
                    tc_ps,
                    tmin_ps: delay,
                });
            }
        }
    }

    if options.area_recovery {
        // Shrink pass: walk gates from the biggest down, undoing size that
        // the constraint does not need.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 1..path.len() {
                loop {
                    let trial = (sizes[i] / options.step).max(cref);
                    if trial >= sizes[i] {
                        break;
                    }
                    let old = sizes[i];
                    sizes[i] = trial;
                    let d = path.delay(lib, &sizes).total_ps;
                    evaluations += 1;
                    if d <= tc_ps {
                        delay = d;
                        changed = true;
                    } else {
                        sizes[i] = old;
                        break;
                    }
                }
            }
        }
    }

    Ok(GreedyResult {
        total_cin_ff: sizes.iter().sum(),
        delay_ps: delay,
        sizes,
        iterations,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_core::bounds::delay_bounds;
    use pops_core::sensitivity::distribute_constraint;
    use pops_delay::PathStage;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn path() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::new(Nand2),
                PathStage::with_load(Nor2, 12.0),
                PathStage::new(Inv),
                PathStage::new(Nand3),
                PathStage::new(Inv),
            ],
            2.7,
            140.0,
        )
    }

    #[test]
    fn greedy_min_delay_improves_on_min_sizing() {
        let lib = lib();
        let p = path();
        let start = p.delay(&lib, &p.min_sizes(&lib)).total_ps;
        let r = greedy_min_delay(&lib, &p, &GreedyOptions::default());
        assert!(r.delay_ps < start);
    }

    #[test]
    fn pops_tmin_beats_or_matches_greedy() {
        // Fig. 2's claim: the deterministic bound is at or below the
        // iterative tool's best.
        let lib = lib();
        let p = path();
        let greedy = greedy_min_delay(&lib, &p, &GreedyOptions::default());
        let pops = delay_bounds(&lib, &p);
        assert!(
            pops.tmin_ps <= greedy.delay_ps * 1.005,
            "pops {} vs greedy {}",
            pops.tmin_ps,
            greedy.delay_ps
        );
    }

    #[test]
    fn constraint_is_met() {
        let lib = lib();
        let p = path();
        let b = delay_bounds(&lib, &p);
        let tc = 1.3 * b.tmin_ps;
        let r = greedy_size_for_constraint(&lib, &p, tc, &GreedyOptions::default()).unwrap();
        assert!(r.delay_ps <= tc);
    }

    #[test]
    fn pops_area_beats_or_matches_greedy_area() {
        // Fig. 4's claim: under a hard constraint, the constant
        // sensitivity distribution needs less (or equal) area.
        let lib = lib();
        let p = path();
        let b = delay_bounds(&lib, &p);
        let tc = 1.2 * b.tmin_ps;
        let greedy = greedy_size_for_constraint(&lib, &p, tc, &GreedyOptions::default()).unwrap();
        let pops = distribute_constraint(&lib, &p, tc).unwrap();
        assert!(
            pops.total_cin_ff <= greedy.total_cin_ff * 1.02,
            "pops {} vs greedy {}",
            pops.total_cin_ff,
            greedy.total_cin_ff
        );
    }

    #[test]
    fn greedy_uses_many_more_evaluations_than_path_length() {
        // The Table 1 cost driver: evaluation count blows up.
        let lib = lib();
        let p = path();
        let b = delay_bounds(&lib, &p);
        let r = greedy_size_for_constraint(&lib, &p, 1.2 * b.tmin_ps, &GreedyOptions::default())
            .unwrap();
        assert!(r.evaluations > 10 * p.len());
    }

    #[test]
    fn infeasible_constraint_is_detected() {
        let lib = lib();
        let p = path();
        let b = delay_bounds(&lib, &p);
        let err = greedy_size_for_constraint(&lib, &p, 0.5 * b.tmin_ps, &GreedyOptions::default())
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Infeasible { .. }));
    }

    #[test]
    fn area_recovery_reduces_area() {
        let lib = lib();
        let p = path();
        let b = delay_bounds(&lib, &p);
        let tc = 1.4 * b.tmin_ps;
        let with = greedy_size_for_constraint(&lib, &p, tc, &GreedyOptions::default()).unwrap();
        let without = greedy_size_for_constraint(
            &lib,
            &p,
            tc,
            &GreedyOptions {
                area_recovery: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.total_cin_ff <= without.total_cin_ff);
    }
}
