//! Bounded combinational paths: the object every POPS optimization acts on.
//!
//! A *bounded* path (paper §2.2) has its input gate capacitance fixed by
//! the latch that feeds it and its terminal load fixed by the gates or
//! registers it drives. Under the eq. (1)–(3) model the path delay is then
//! a convex function of the interior gate input capacitances, which makes
//! `Tmin` well defined and the constant-sensitivity system solvable.

use pops_netlist::CellKind;

use crate::library::Library;
use crate::model::{gate_delay, Edge};

/// One gate stage on a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStage {
    /// The library cell implementing the stage.
    pub cell: CellKind,
    /// Fixed off-path capacitive load at the stage output (fF): pin caps of
    /// fanout gates that are not on this path, plus wire estimate.
    pub off_path_load_ff: f64,
}

impl PathStage {
    /// A stage with no off-path load.
    pub fn new(cell: CellKind) -> Self {
        PathStage {
            cell,
            off_path_load_ff: 0.0,
        }
    }

    /// A stage with the given off-path load (fF).
    pub fn with_load(cell: CellKind, off_path_load_ff: f64) -> Self {
        PathStage {
            cell,
            off_path_load_ff,
        }
    }
}

/// Per-stage result of a path delay evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDelay {
    /// Stage switching delay (ps).
    pub delay_ps: f64,
    /// Stage output transition time (ps).
    pub transition_ps: f64,
    /// Edge direction at the stage output.
    pub output_edge: Edge,
    /// Total external load seen by the stage (fF), excluding its own
    /// parasitic.
    pub load_ff: f64,
}

/// Full result of a path delay evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDelay {
    /// Path delay (ps): sum of stage delays.
    pub total_ps: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageDelay>,
}

/// A bounded combinational path through known cells.
///
/// # Example
///
/// ```
/// use pops_delay::{Library, PathStage, TimedPath};
/// use pops_netlist::CellKind;
///
/// let lib = Library::cmos025();
/// let path = TimedPath::new(
///     vec![
///         PathStage::new(CellKind::Inv),
///         PathStage::new(CellKind::Nand2),
///         PathStage::new(CellKind::Inv),
///     ],
///     lib.min_drive_ff(), // input gate size fixed by the latch
///     50.0,               // terminal load (fF)
/// );
/// let sizes = path.min_sizes(&lib);
/// let d = path.delay(&lib, &sizes);
/// assert!(d.total_ps > 0.0);
/// assert_eq!(d.stages.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPath {
    stages: Vec<PathStage>,
    source_drive_ff: f64,
    terminal_load_ff: f64,
    input_transition_ps: f64,
    input_edge: Edge,
}

impl TimedPath {
    /// Create a bounded path.
    ///
    /// * `source_drive_ff` — fixed input capacitance of the first gate.
    /// * `terminal_load_ff` — fixed load after the last gate.
    ///
    /// The path input transition defaults to 50 ps with a rising edge; use
    /// [`TimedPath::with_input_conditions`] to change it.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, if the source drive or the terminal
    /// load is not finite and positive, or if an off-path load is not
    /// finite and non-negative.
    pub fn new(stages: Vec<PathStage>, source_drive_ff: f64, terminal_load_ff: f64) -> Self {
        assert!(!stages.is_empty(), "a path needs at least one stage");
        assert!(
            source_drive_ff.is_finite() && source_drive_ff > 0.0,
            "source drive must be finite and positive, got {source_drive_ff}"
        );
        assert!(
            terminal_load_ff.is_finite() && terminal_load_ff > 0.0,
            "terminal load must be finite and positive, got {terminal_load_ff}"
        );
        stages.iter().for_each(assert_valid_stage);
        TimedPath {
            stages,
            source_drive_ff,
            terminal_load_ff,
            input_transition_ps: 50.0,
            input_edge: Edge::Rising,
        }
    }

    /// Set the input edge and transition time at the path input.
    ///
    /// # Panics
    ///
    /// Panics if `transition_ps` is not finite and non-negative.
    pub fn with_input_conditions(mut self, edge: Edge, transition_ps: f64) -> Self {
        assert!(
            transition_ps.is_finite() && transition_ps >= 0.0,
            "input transition must be finite and non-negative, got {transition_ps}"
        );
        self.input_edge = edge;
        self.input_transition_ps = transition_ps;
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the path has no stages (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages.
    pub fn stages(&self) -> &[PathStage] {
        &self.stages
    }

    /// Fixed input-gate capacitance (fF).
    pub fn source_drive_ff(&self) -> f64 {
        self.source_drive_ff
    }

    /// Fixed terminal load (fF).
    pub fn terminal_load_ff(&self) -> f64 {
        self.terminal_load_ff
    }

    /// Edge at the path input.
    pub fn input_edge(&self) -> Edge {
        self.input_edge
    }

    /// Transition time at the path input (ps).
    pub fn input_transition_ps(&self) -> f64 {
        self.input_transition_ps
    }

    /// The minimum-drive sizing: every interior gate at `C_REF`, the first
    /// gate pinned at the source drive. This is the paper's `Tmax`
    /// configuration ("all the gates implemented with the minimum
    /// available drive").
    pub fn min_sizes(&self, lib: &Library) -> Vec<f64> {
        let mut sizes = vec![lib.min_drive_ff(); self.stages.len()];
        sizes[0] = self.source_drive_ff;
        sizes
    }

    /// External load seen by stage `i` under `sizes`: off-path load plus
    /// the next stage's input capacitance (or the terminal load).
    pub fn stage_load_ff(&self, i: usize, sizes: &[f64]) -> f64 {
        let downstream = if i + 1 < self.stages.len() {
            sizes[i + 1]
        } else {
            self.terminal_load_ff
        };
        self.stages[i].off_path_load_ff + downstream
    }

    /// Evaluate the full closed-form path delay under `sizes`.
    ///
    /// `sizes[i]` is the input capacitance of stage `i`; `sizes[0]` should
    /// equal [`TimedPath::source_drive_ff`] (asserted in debug builds —
    /// optimizers must not resize the latch-constrained input gate).
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != self.len()`.
    pub fn delay(&self, lib: &Library, sizes: &[f64]) -> PathDelay {
        assert_eq!(sizes.len(), self.stages.len(), "one size per stage");
        debug_assert!(
            (sizes[0] - self.source_drive_ff).abs() < 1e-9,
            "stage 0 size is fixed by the latch constraint"
        );
        let mut tau_in = self.input_transition_ps;
        let mut edge = self.input_edge;
        let mut total = 0.0;
        let mut stages = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let load = self.stage_load_ff(i, sizes);
            let d = gate_delay(lib, stage.cell, sizes[i], load, tau_in, edge);
            total += d.delay_ps;
            stages.push(StageDelay {
                delay_ps: d.delay_ps,
                transition_ps: d.output_transition_ps,
                output_edge: d.output_edge,
                load_ff: load,
            });
            tau_in = d.output_transition_ps;
            edge = d.output_edge;
        }
        PathDelay {
            total_ps: total,
            stages,
        }
    }

    /// Path delay for the worse of the two possible input edges.
    pub fn delay_worst(&self, lib: &Library, sizes: &[f64]) -> f64 {
        let mut rising = self.clone();
        rising.input_edge = Edge::Rising;
        let mut falling = self.clone();
        falling.input_edge = Edge::Falling;
        rising
            .delay(lib, sizes)
            .total_ps
            .max(falling.delay(lib, sizes).total_ps)
    }

    /// Numeric gradient `∂T/∂C_IN(i)` by central differences.
    ///
    /// Index 0 is reported too (useful for diagnostics) even though the
    /// optimizers never move it.
    pub fn gradient(&self, lib: &Library, sizes: &[f64]) -> Vec<f64> {
        assert_eq!(sizes.len(), self.stages.len());
        let mut grad = Vec::with_capacity(sizes.len());
        let mut work = sizes.to_vec();
        for i in 0..sizes.len() {
            let h = (sizes[i] * 1e-5).max(1e-7);
            let orig = work[i];
            work[i] = orig + h;
            let hi = self.delay_unchecked(lib, &work);
            work[i] = orig - h;
            let lo = self.delay_unchecked(lib, &work);
            work[i] = orig;
            grad.push((hi - lo) / (2.0 * h));
        }
        grad
    }

    /// Delay without the stage-0 pin assertion (gradient probing only).
    fn delay_unchecked(&self, lib: &Library, sizes: &[f64]) -> f64 {
        let mut tau_in = self.input_transition_ps;
        let mut edge = self.input_edge;
        let mut total = 0.0;
        for (i, stage) in self.stages.iter().enumerate() {
            let load = self.stage_load_ff(i, sizes);
            let d = gate_delay(lib, stage.cell, sizes[i], load, tau_in, edge);
            total += d.delay_ps;
            tau_in = d.output_transition_ps;
            edge = d.output_edge;
        }
        total
    }

    /// Total input capacitance of a sizing (fF) — proportional to the
    /// `ΣW` area/power metric via [`crate::Process::width_um`].
    pub fn total_cin_ff(sizes: &[f64]) -> f64 {
        sizes.iter().sum()
    }

    /// The paper's `ΣW` area metric (µm) for a sizing.
    pub fn area_um(&self, lib: &Library, sizes: &[f64]) -> f64 {
        lib.process().width_um(Self::total_cin_ff(sizes))
    }

    /// Insert a stage at position `at` (the new stage drives the former
    /// stage `at`; `at == len()` appends before the terminal load).
    ///
    /// Used by buffer insertion. Returns the new path.
    ///
    /// # Panics
    ///
    /// Panics if `at == 0` (the latch-bounded input gate cannot be
    /// displaced), if `at > len()`, or if the stage's off-path load is not
    /// finite and non-negative.
    pub fn with_stage_inserted(&self, at: usize, stage: PathStage) -> TimedPath {
        assert!(at >= 1, "cannot insert before the latch-bounded input gate");
        assert!(at <= self.stages.len());
        assert_valid_stage(&stage);
        let mut stages = self.stages.clone();
        stages.insert(at, stage);
        TimedPath {
            stages,
            source_drive_ff: self.source_drive_ff,
            terminal_load_ff: self.terminal_load_ff,
            input_transition_ps: self.input_transition_ps,
            input_edge: self.input_edge,
        }
    }

    /// Replace the cell (and off-path load) of stage `at`. Used by the
    /// De Morgan restructuring step.
    ///
    /// # Panics
    ///
    /// Panics if `at >= len()` or if the stage's off-path load is not
    /// finite and non-negative.
    pub fn with_stage_replaced(&self, at: usize, stage: PathStage) -> TimedPath {
        assert!(at < self.stages.len());
        assert_valid_stage(&stage);
        let mut stages = self.stages.clone();
        stages[at] = stage;
        TimedPath {
            stages,
            source_drive_ff: self.source_drive_ff,
            terminal_load_ff: self.terminal_load_ff,
            input_transition_ps: self.input_transition_ps,
            input_edge: self.input_edge,
        }
    }
}

/// A path stage's off-path load must be finite and non-negative: the
/// delay model and the solvers assume it.
fn assert_valid_stage(stage: &PathStage) {
    let load = stage.off_path_load_ff;
    assert!(
        load.is_finite() && load >= 0.0,
        "off-path load must be finite and non-negative, got {load}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn inv_chain(n: usize, terminal: f64) -> TimedPath {
        TimedPath::new(
            vec![PathStage::new(CellKind::Inv); n],
            Library::cmos025().min_drive_ff(),
            terminal,
        )
    }

    #[test]
    fn delay_is_sum_of_stage_delays() {
        let lib = lib();
        let p = inv_chain(5, 30.0);
        let sizes = p.min_sizes(&lib);
        let d = p.delay(&lib, &sizes);
        let sum: f64 = d.stages.iter().map(|s| s.delay_ps).sum();
        assert!((d.total_ps - sum).abs() < 1e-9);
    }

    #[test]
    fn edges_alternate_through_inverters() {
        let lib = lib();
        let p = inv_chain(4, 30.0);
        let d = p.delay(&lib, &p.min_sizes(&lib));
        let edges: Vec<Edge> = d.stages.iter().map(|s| s.output_edge).collect();
        assert_eq!(
            edges,
            vec![Edge::Falling, Edge::Rising, Edge::Falling, Edge::Rising]
        );
    }

    #[test]
    fn upsizing_an_interior_gate_reduces_total_delay_under_heavy_load() {
        let lib = lib();
        let p = inv_chain(3, 200.0);
        let sizes = p.min_sizes(&lib);
        let base = p.delay(&lib, &sizes).total_ps;
        let mut bigger = sizes.clone();
        bigger[2] *= 3.0;
        assert!(p.delay(&lib, &bigger).total_ps < base);
    }

    #[test]
    fn gradient_matches_finite_difference_of_delay() {
        let lib = lib();
        let p = inv_chain(4, 100.0);
        let mut sizes = p.min_sizes(&lib);
        sizes[1] = 6.0;
        sizes[2] = 9.0;
        sizes[3] = 14.0;
        let grad = p.gradient(&lib, &sizes);
        // Re-derive with a coarser step and compare signs & magnitude.
        for i in 1..4 {
            let h = 0.01;
            let mut up = sizes.clone();
            up[i] += h;
            let mut dn = sizes.clone();
            dn[i] -= h;
            let fd = (p.delay(&lib, &up).total_ps - p.delay(&lib, &dn).total_ps) / (2.0 * h);
            assert!(
                (fd - grad[i]).abs() < 1e-2 * (1.0 + fd.abs()),
                "stage {i}: {fd} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn path_delay_is_convex_along_a_size_axis() {
        // Sample T(cin_2) at increasing sizes: the sequence of second
        // differences must be non-negative (discrete convexity).
        let lib = lib();
        let p = inv_chain(4, 150.0);
        let mut sizes = p.min_sizes(&lib);
        let xs: Vec<f64> = (1..40).map(|i| 2.0 + i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&c| {
                sizes[2] = c;
                p.delay(&lib, &sizes).total_ps
            })
            .collect();
        for w in ys.windows(3) {
            let second = w[2] - 2.0 * w[1] + w[0];
            assert!(second > -1e-6, "second difference {second}");
        }
    }

    #[test]
    fn stage_insertion_shifts_loads() {
        let lib = lib();
        let p = inv_chain(3, 60.0);
        let q = p.with_stage_inserted(2, PathStage::new(CellKind::Inv));
        assert_eq!(q.len(), 4);
        let sizes = q.min_sizes(&lib);
        // Stage 1 now drives the inserted stage's cin instead of stage 2's.
        assert!((q.stage_load_ff(1, &sizes) - sizes[2]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "latch-bounded")]
    fn cannot_insert_before_input_gate() {
        let p = inv_chain(3, 60.0);
        let _ = p.with_stage_inserted(0, PathStage::new(CellKind::Inv));
    }

    fn with_off_load(load: f64) -> TimedPath {
        TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::with_load(CellKind::Nand2, load),
                PathStage::new(CellKind::Inv),
            ],
            2.7,
            60.0,
        )
    }

    #[test]
    #[should_panic(expected = "off-path load must be finite and non-negative")]
    fn nan_off_path_load_is_rejected() {
        let _ = with_off_load(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "off-path load must be finite and non-negative")]
    fn negative_off_path_load_is_rejected() {
        let _ = with_off_load(-30.0);
    }

    #[test]
    #[should_panic(expected = "off-path load must be finite and non-negative")]
    fn infinite_off_path_load_is_rejected() {
        let _ = with_off_load(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "terminal load must be finite and positive")]
    fn infinite_terminal_load_is_rejected() {
        let _ = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], 2.7, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "terminal load must be finite and positive")]
    fn nan_terminal_load_is_rejected() {
        let _ = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], 2.7, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "source drive must be finite and positive")]
    fn infinite_source_drive_is_rejected() {
        let _ = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], f64::INFINITY, 60.0);
    }

    #[test]
    #[should_panic(expected = "source drive must be finite and positive")]
    fn nan_source_drive_is_rejected() {
        let _ = TimedPath::new(vec![PathStage::new(CellKind::Inv); 3], f64::NAN, 60.0);
    }

    #[test]
    #[should_panic(expected = "off-path load must be finite and non-negative")]
    fn inserted_stage_with_a_negative_load_is_rejected() {
        let _ =
            inv_chain(3, 60.0).with_stage_inserted(1, PathStage::with_load(CellKind::Inv, -1.0));
    }

    #[test]
    #[should_panic(expected = "off-path load must be finite and non-negative")]
    fn replacing_stage_with_a_nan_load_is_rejected() {
        let _ = inv_chain(3, 60.0)
            .with_stage_replaced(2, PathStage::with_load(CellKind::Inv, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "input transition must be finite and non-negative")]
    fn nan_input_transition_is_rejected() {
        let _ = inv_chain(3, 60.0).with_input_conditions(Edge::Falling, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "input transition must be finite and non-negative")]
    fn infinite_input_transition_is_rejected() {
        let _ = inv_chain(3, 60.0).with_input_conditions(Edge::Rising, f64::INFINITY);
    }

    #[test]
    fn zero_off_path_load_and_transition_are_accepted() {
        let p = with_off_load(0.0).with_input_conditions(Edge::Falling, 0.0);
        assert_eq!(p.stages()[1].off_path_load_ff, 0.0);
        assert_eq!(p.input_transition_ps(), 0.0);
    }

    #[test]
    fn stage_replacement_changes_cell() {
        let p = inv_chain(3, 60.0);
        let q = p.with_stage_replaced(1, PathStage::new(CellKind::Nand2));
        assert_eq!(q.stages()[1].cell, CellKind::Nand2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn worst_case_covers_both_edges() {
        let lib = lib();
        let p = inv_chain(3, 60.0);
        let sizes = p.min_sizes(&lib);
        let worst = p.delay_worst(&lib, &sizes);
        let rising = p
            .clone()
            .with_input_conditions(Edge::Rising, p.input_transition_ps())
            .delay(&lib, &sizes)
            .total_ps;
        let falling = p
            .clone()
            .with_input_conditions(Edge::Falling, p.input_transition_ps())
            .delay(&lib, &sizes)
            .total_ps;
        assert!((worst - rising.max(falling)).abs() < 1e-9);
    }

    #[test]
    fn off_path_load_slows_the_stage() {
        let lib = lib();
        let light = TimedPath::new(
            vec![PathStage::new(CellKind::Inv), PathStage::new(CellKind::Inv)],
            2.7,
            30.0,
        );
        let heavy = TimedPath::new(
            vec![
                PathStage::with_load(CellKind::Inv, 40.0),
                PathStage::new(CellKind::Inv),
            ],
            2.7,
            30.0,
        );
        let sizes = light.min_sizes(&lib);
        assert!(heavy.delay(&lib, &sizes).total_ps > light.delay(&lib, &sizes).total_ps);
    }

    #[test]
    fn area_is_proportional_to_total_cin() {
        let lib = lib();
        let p = inv_chain(3, 60.0);
        let sizes = vec![2.7, 5.4, 10.8];
        let area = p.area_um(&lib, &sizes);
        let expect = (2.7 + 5.4 + 10.8) / lib.process().cg_per_um;
        assert!((area - expect).abs() < 1e-12);
    }
}
