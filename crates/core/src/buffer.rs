//! Buffer insertion and the `Flimit` metric (§4.1, Table 2, Fig. 5).
//!
//! For a gate `i` controlled by a driver `i−1`, the **load buffer
//! insertion limit** `Flimit` is the fan-out `F = C_L/C_IN(i)` above
//! which inserting an optimally sized buffer between gate `i` and its
//! load is faster than driving the load directly (sizes of `i−1` and `i`
//! conserved — the paper's *local* insertion).
//!
//! "Greater is the logical weight of the gate, lower is the limit": the
//! limit is a measure of gate efficiency, which is why the NOR3 (weakest
//! pull-up) must be relieved at much lower loads than an inverter
//! (Table 2: inv 5.7 … nor3 2.7).

use std::collections::HashSet;

use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::surgery::{EditOp, EditPlan};
use pops_netlist::{CellKind, Circuit, GateId, NetDriver, NetId};

use crate::bounds::{golden_min, tmin, TminResult};

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlimitEntry {
    /// Driving cell (`i−1`).
    pub driver: CellKind,
    /// Driven cell (`i`) whose output node is buffered.
    pub gate: CellKind,
    /// The fan-out limit.
    pub flimit: f64,
}

/// Reference sizing used for `Flimit` characterization, as a multiple of
/// the minimum drive (a representative mid-range drive).
const CHAR_DRIVE_FACTOR: f64 = 4.0;

/// Compute `Flimit` for `gate` driven by `driver` under the closed-form
/// model.
///
/// The characterization uses the *worst* of the two input polarities —
/// what matters on a critical path, and what separates cells whose weak
/// edge is the stacked one (a NAND3's series pull-down, a NOR3's series
/// pull-up).
///
/// Returns `None` when no crossover exists below the probed fan-out range
/// (the gate never benefits from local buffering).
///
/// The figure depends on the library alone, so `lib` keeps it
/// ([`Library::flimit_slot`]): the first call per (driver, gate) pair
/// runs the characterization (a bisection with a golden-section inner
/// loop, about 0.6 ms) and every later call on `lib` or a clone of it
/// is a table read.
pub fn flimit(lib: &Library, driver: CellKind, gate: CellKind) -> Option<f64> {
    *lib.flimit_slot(driver, gate).get_or_init(|| {
        let eval = |path: &TimedPath, sizes: &[f64]| path.delay_worst(lib, sizes);
        flimit_with(lib, driver, gate, eval)
    })
}

/// [`flimit`] with a custom delay evaluator (e.g. the transient
/// simulator, producing Table 2's "Simulation" column). Characterizes
/// on every call: nothing is read from or kept in the library.
pub fn flimit_with(
    lib: &Library,
    driver: CellKind,
    gate: CellKind,
    eval: impl Fn(&TimedPath, &[f64]) -> f64,
) -> Option<f64> {
    let cref = lib.min_drive_ff();
    let cin_driver = CHAR_DRIVE_FACTOR * cref;
    let cin_gate = CHAR_DRIVE_FACTOR * cref;

    // Delay difference (buffered − direct) at fan-out `f`.
    let advantage = |f: f64| -> f64 {
        let terminal = f * cin_gate;
        let direct = TimedPath::new(
            vec![PathStage::new(driver), PathStage::new(gate)],
            cin_driver,
            terminal,
        );
        let d_a = eval(&direct, &[cin_driver, cin_gate]);

        let buffered = TimedPath::new(
            vec![
                PathStage::new(driver),
                PathStage::new(gate),
                PathStage::new(CellKind::Inv),
            ],
            cin_driver,
            terminal,
        );
        let d_b = golden_min_value(
            |b| eval(&buffered, &[cin_driver, cin_gate, b]),
            cref,
            terminal.max(4.0 * cref),
        );
        d_b - d_a
    };

    // Bracket the crossover: advantage > 0 (buffer hurts) at small F,
    // < 0 (buffer wins) at large F.
    let max_fanout = 120.0;
    let mut lo = 1.0;
    if advantage(lo) <= 0.0 {
        // Buffer already helps at fan-out 1 — degenerate but possible for
        // extremely weak gates; report the floor.
        return Some(lo);
    }
    let mut hi = 2.0;
    while advantage(hi) > 0.0 {
        hi *= 1.5;
        if hi > max_fanout {
            return None;
        }
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if advantage(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Minimum *value* (not argmin) of a unimodal function by golden section.
fn golden_min_value(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    let x = golden_min(&f, lo, hi);
    f(x)
}

/// Characterize the Table 2 rows: inverter driving each gate kind.
pub fn flimit_table(lib: &Library, gates: &[CellKind]) -> Vec<FlimitEntry> {
    gates
        .iter()
        .filter_map(|&gate| {
            flimit(lib, CellKind::Inv, gate).map(|f| FlimitEntry {
                driver: CellKind::Inv,
                gate,
                flimit: f,
            })
        })
        .collect()
}

/// Result of inserting buffers into a path.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedPath {
    /// The modified path.
    pub path: TimedPath,
    /// Stage indices (in the *new* path) of the inserted buffers.
    pub inserted_at: Vec<usize>,
}

impl BufferedPath {
    /// Number of buffers inserted.
    pub fn buffer_count(&self) -> usize {
        self.inserted_at.len()
    }
}

/// Identify over-limit nodes of a sized path: stages whose effective
/// fan-out `C_L(i)/C_IN(i)` exceeds the `Flimit` of their (driver, cell)
/// pair. Returns `(stage, fanout / flimit)` sorted by decreasing excess.
pub fn over_limit_nodes(lib: &Library, path: &TimedPath, sizes: &[f64]) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for i in 0..path.len() {
        let cell = path.stages()[i].cell;
        let driver = if i == 0 {
            CellKind::Inv // the latch behaves like an inverter stage
        } else {
            path.stages()[i - 1].cell
        };
        let Some(limit) = flimit(lib, driver, cell) else {
            continue;
        };
        let fanout = path.stage_load_ff(i, sizes) / sizes[i];
        if fanout > limit {
            out.push((i, fanout / limit));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Iteratively insert buffers after over-limit nodes until the minimum
/// delay stops improving (§4.1's flow: `Flimit` finds the critical nodes,
/// buffers dilute their loads).
///
/// A buffer on a logic path is a polarity-preserving *pair* of inverters
/// (the non-inverting buffer of the paper's Fig. 5); the pair's second
/// stage takes over the node's off-path load (load isolation), which is
/// what lets the original gate shrink.
///
/// Returns the buffered path and the `Tmin` result on it.
pub fn insert_buffers(lib: &Library, path: &TimedPath) -> (BufferedPath, TminResult) {
    let mut current = path.clone();
    let mut inserted_at: Vec<usize> = Vec::new();
    let mut best = tmin(lib, &current);
    let max_insertions = path.len().max(4);

    for _ in 0..max_insertions {
        let candidates = over_limit_nodes(lib, &current, &best.sizes);
        let mut improved = false;
        for &(node, _excess) in &candidates {
            // Insert the inverter pair after `node`, moving the off-path
            // load onto the second (driving) inverter.
            let mut trial = current.clone();
            let off = trial.stages()[node].off_path_load_ff;
            let cell = trial.stages()[node].cell;
            trial = trial.with_stage_replaced(node, PathStage::new(cell));
            trial = trial.with_stage_inserted(node + 1, PathStage::new(CellKind::Inv));
            trial = trial.with_stage_inserted(node + 2, PathStage::with_load(CellKind::Inv, off));
            let trial_tmin = tmin(lib, &trial);
            if trial_tmin.delay_ps < best.delay_ps * (1.0 - 1e-6) {
                // Accept; shift previously recorded positions.
                for p in inserted_at.iter_mut() {
                    if *p > node {
                        *p += 2;
                    }
                }
                inserted_at.push(node + 1);
                inserted_at.push(node + 2);
                current = trial;
                best = trial_tmin;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }

    inserted_at.sort_unstable();
    (
        BufferedPath {
            path: current,
            inserted_at,
        },
        best,
    )
}

/// [`flimit`] lookups for the structural planners. Stateless: [`flimit`]
/// itself characterizes each pair once per library, so a planning pass
/// that touches the same handful of pairs for thousands of nets pays
/// table reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlimitCache;

impl FlimitCache {
    /// A lookup handle.
    pub fn new() -> Self {
        FlimitCache
    }

    /// `Flimit` of `gate` driven by `driver`, characterized on first use
    /// of `lib`.
    pub fn get(&mut self, lib: &Library, driver: CellKind, gate: CellKind) -> Option<f64> {
        flimit(lib, driver, gate)
    }
}

/// The cell driving `gate`'s first input pin — the netlist analogue of
/// the path convention in [`over_limit_nodes`] (a primary input behaves
/// like the latch: an inverter stage). Shared with the De Morgan
/// planner so both selection rules read `Flimit` for the same pair.
pub(crate) fn upstream_cell(circuit: &Circuit, gate: GateId) -> CellKind {
    circuit
        .gate(gate)
        .inputs()
        .first()
        .and_then(|&n| match circuit.net(n).driver() {
            Some(NetDriver::Gate(g)) => Some(circuit.gate(g).kind()),
            _ => None,
        })
        .unwrap_or(CellKind::Inv)
}

/// Total capacitive load on a net (fF): the listed gate input pins
/// under `cin_ff` plus the latch load at primary outputs — the same sum
/// STA uses. Shared with the De Morgan planner.
pub(crate) fn net_load_ff(circuit: &Circuit, cin_ff: &[f64], po_load_ff: f64, net: NetId) -> f64 {
    let mut load: f64 = circuit
        .net(net)
        .loads()
        .iter()
        .map(|&(g, _)| cin_ff[g.index()])
        .sum();
    if circuit.net(net).is_output() {
        load += po_load_ff;
    }
    load
}

/// Plan Inv-pair insertions for every candidate net driven past its
/// `Flimit` — the netlist write-back form of [`insert_buffers`]: instead
/// of editing an abstract [`TimedPath`], the returned [`EditPlan`]
/// names real nets and load pins for `Circuit::insert_buffer` /
/// `TimingGraph::apply_edits`.
///
/// For each net the effective fan-out `F = C_L / C_IN(driver gate)` is
/// compared against the `Flimit` of the (upstream cell, driver cell)
/// pair; over-limit nets get a buffer pair that takes over every load
/// pin for which `move_pin(net, gate)` answers `true` — callers keep
/// the timing-critical successors direct (commonly the next gate of
/// the critical path, plus anything without slack headroom for the
/// extra buffer stages). The latch load of a primary output always
/// stays. Nets where nothing moves are skipped.
///
/// Inverter sizes follow the `Flimit` of an inverter driving an
/// inverter as the taper: the second stage carries the moved load at
/// that fan-out, the first loads the relieved net as lightly as the
/// taper allows — so the insertion itself never pushes a net past the
/// inverter limit.
///
/// Candidate nets may repeat; each is planned at most once.
pub fn plan_buffer_insertions(
    circuit: &Circuit,
    lib: &Library,
    cin_ff: &[f64],
    po_load_ff: f64,
    candidates: &[NetId],
    mut move_pin: impl FnMut(NetId, GateId) -> bool,
    cache: &mut FlimitCache,
) -> EditPlan {
    assert_eq!(
        cin_ff.len(),
        circuit.gate_count(),
        "one input capacitance per gate"
    );
    let cref = lib.min_drive_ff();
    let taper = cache
        .get(lib, CellKind::Inv, CellKind::Inv)
        .unwrap_or(4.0)
        .max(2.0);
    let mut plan = EditPlan::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    for &net in candidates {
        if !seen.insert(net) {
            continue;
        }
        let Some(driver) = circuit.driver_gate(net) else {
            continue;
        };
        let load = net_load_ff(circuit, cin_ff, po_load_ff, net);
        let fanout = load / cin_ff[driver.index()];
        let Some(limit) = cache.get(
            lib,
            upstream_cell(circuit, driver),
            circuit.gate(driver).kind(),
        ) else {
            continue;
        };
        if fanout <= limit {
            continue;
        }
        let mut moved = Vec::new();
        let mut moved_cap = 0.0;
        for &(g, pin) in circuit.net(net).loads() {
            if !move_pin(net, g) {
                continue;
            }
            moved.push((g, pin));
            moved_cap += cin_ff[g.index()];
        }
        if moved.is_empty() {
            continue;
        }
        if moved.len() == circuit.net(net).fanout() && !circuit.net(net).is_output() {
            // Everything would move: on an internal net that just
            // lengthens every path through it without isolating
            // anything from the critical chain. (At a primary output
            // the latch stays direct, so full pin re-homing is the
            // classic endpoint relief and remains worthwhile.)
            continue;
        }
        let second = (moved_cap / taper).max(cref);
        let first = (second / taper).max(cref);
        plan.push(EditOp::InsertBuffer {
            net,
            loads: moved,
            stage_cin_ff: [first, second],
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::cmos025()
    }

    #[test]
    fn table2_ordering_holds() {
        // Table 2: Flimit(inv→inv) > nand2 > nand3 > nor2 > nor3.
        let lib = lib();
        let f = |g: CellKind| flimit(&lib, CellKind::Inv, g).expect("crossover exists");
        let inv = f(CellKind::Inv);
        let nand2 = f(CellKind::Nand2);
        let nand3 = f(CellKind::Nand3);
        let nor2 = f(CellKind::Nor2);
        let nor3 = f(CellKind::Nor3);
        assert!(inv > nand2, "inv {inv} !> nand2 {nand2}");
        assert!(nand2 > nand3, "nand2 {nand2} !> nand3 {nand3}");
        assert!(nand3 > nor2, "nand3 {nand3} !> nor2 {nor2}");
        assert!(nor2 > nor3, "nor2 {nor2} !> nor3 {nor3}");
    }

    #[test]
    fn table2_values_are_in_the_papers_range() {
        // The paper reports 5.7 / 4.9 / 4.5 / 3.8 / 2.7 on its process;
        // with reconstructed parameters we accept generous bands.
        let lib = lib();
        let f = |g: CellKind| flimit(&lib, CellKind::Inv, g).unwrap();
        assert!(
            (3.5..9.0).contains(&f(CellKind::Inv)),
            "inv {}",
            f(CellKind::Inv)
        );
        assert!(
            (1.5..5.0).contains(&f(CellKind::Nor3)),
            "nor3 {}",
            f(CellKind::Nor3)
        );
    }

    #[test]
    fn buffer_helps_above_the_limit_and_hurts_below() {
        let lib = lib();
        let gate = CellKind::Nor2;
        let limit = flimit(&lib, CellKind::Inv, gate).unwrap();
        let cref = lib.min_drive_ff();
        let cin = CHAR_DRIVE_FACTOR * cref;
        let check = |f: f64| -> f64 {
            let terminal = f * cin;
            let direct = TimedPath::new(
                vec![PathStage::new(CellKind::Inv), PathStage::new(gate)],
                cin,
                terminal,
            );
            let d_a = direct.delay_worst(&lib, &[cin, cin]);
            let buffered = TimedPath::new(
                vec![
                    PathStage::new(CellKind::Inv),
                    PathStage::new(gate),
                    PathStage::new(CellKind::Inv),
                ],
                cin,
                terminal,
            );
            let best_b = golden_min(
                |b| buffered.delay_worst(&lib, &[cin, cin, b]),
                cref,
                terminal.max(4.0 * cref),
            );
            buffered.delay_worst(&lib, &[cin, cin, best_b]) - d_a
        };
        assert!(check(limit * 0.6) > 0.0, "buffer should hurt below Flimit");
        assert!(check(limit * 1.8) < 0.0, "buffer should help above Flimit");
    }

    #[test]
    fn flimit_table_covers_requested_gates() {
        let lib = lib();
        let gates = [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Nand3,
            CellKind::Nor2,
            CellKind::Nor3,
        ];
        let table = flimit_table(&lib, &gates);
        assert_eq!(table.len(), 5);
        for e in &table {
            assert_eq!(e.driver, CellKind::Inv);
            assert!(e.flimit > 1.0);
        }
    }

    #[test]
    fn over_limit_detection_flags_heavy_nodes() {
        let lib = lib();
        // NOR3 into a huge terminal load: clearly over-limit.
        let path = TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::new(CellKind::Nor3),
            ],
            2.7,
            400.0,
        );
        let sizes = path.min_sizes(&lib);
        let nodes = over_limit_nodes(&lib, &path, &sizes);
        assert!(nodes.iter().any(|&(i, _)| i == 1), "{nodes:?}");
    }

    /// The model evaluator `flimit` characterizes with, for uncached
    /// reference values.
    fn model_flimit(lib: &Library, driver: CellKind, gate: CellKind) -> Option<f64> {
        flimit_with(lib, driver, gate, |path, sizes| {
            path.delay_worst(lib, sizes)
        })
    }

    #[test]
    fn over_limit_nodes_characterizes_each_pair_once_per_library() {
        let lib = lib();
        let cells = [
            CellKind::Nor3,
            CellKind::Nand2,
            CellKind::Inv,
            CellKind::Nor2,
        ];
        let path = TimedPath::new(
            cells.iter().map(|&c| PathStage::new(c)).collect(),
            2.7,
            60.0,
        );
        let sizes = path.min_sizes(&lib);
        let first = over_limit_nodes(&lib, &path, &sizes);
        // Stage 0 is driven by the latch, an inverter stage.
        let drivers = std::iter::once(CellKind::Inv).chain(cells.iter().copied());
        for (driver, gate) in drivers.zip(cells) {
            assert_eq!(
                lib.flimit_slot(driver, gate).get().copied(),
                Some(model_flimit(&lib, driver, gate)),
                "{driver} -> {gate}"
            );
        }
        assert_eq!(over_limit_nodes(&lib, &path, &sizes), first);
    }

    #[test]
    fn buffer_insertion_improves_tmin_on_overloaded_path() {
        // Table 3's effect: sizing+buffers reaches a lower minimum delay
        // than sizing alone on paths with heavily loaded weak gates.
        let lib = lib();
        let path = TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::with_load(CellKind::Nor3, 120.0),
                PathStage::new(CellKind::Nand2),
                PathStage::with_load(CellKind::Nor2, 150.0),
                PathStage::new(CellKind::Inv),
            ],
            2.7,
            200.0,
        );
        let plain = tmin(&lib, &path);
        let (buffered, buffered_tmin) = insert_buffers(&lib, &path);
        assert!(
            buffered.buffer_count() > 0,
            "expected at least one insertion"
        );
        assert!(
            buffered_tmin.delay_ps < plain.delay_ps,
            "buffered {} !< plain {}",
            buffered_tmin.delay_ps,
            plain.delay_ps
        );
    }

    #[test]
    fn buffer_insertion_is_a_no_op_on_light_paths() {
        let lib = lib();
        let path = TimedPath::new(vec![PathStage::new(CellKind::Inv); 4], 2.7, 15.0);
        let (buffered, _) = insert_buffers(&lib, &path);
        assert_eq!(buffered.buffer_count(), 0);
    }

    #[test]
    fn plan_buffer_insertions_targets_only_over_limit_nets() {
        let lib = lib();
        let cref = lib.min_drive_ff();
        // One heavily fanned-out NOR3 and one lightly loaded inverter.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let heavy = c.add_gate(CellKind::Nor3, &[a, b, d], "heavy").unwrap();
        let light = c.add_gate(CellKind::Inv, &[a], "light").unwrap();
        for i in 0..24 {
            let y = c
                .add_gate(CellKind::Inv, &[heavy], format!("h{i}"))
                .unwrap();
            c.mark_output(y);
        }
        let z = c.add_gate(CellKind::Inv, &[light], "z").unwrap();
        c.mark_output(z);
        let cin: Vec<f64> = vec![cref; c.gate_count()];
        let mut cache = FlimitCache::new();
        let nets: Vec<NetId> = c.net_ids().collect();
        // Keep each net's first load pin direct, as a flow would.
        let first_load = |c: &Circuit, n: NetId| c.net(n).loads().first().map(|&(g, _)| g);
        let plan = plan_buffer_insertions(
            &c,
            &lib,
            &cin,
            0.0,
            &nets,
            |n, g| first_load(&c, n) != Some(g),
            &mut cache,
        );
        let targets: Vec<NetId> = plan
            .ops()
            .iter()
            .map(|op| match op {
                EditOp::InsertBuffer { net, .. } => *net,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert!(targets.contains(&heavy), "24× fan-out NOR3 is over-limit");
        assert!(!targets.contains(&light), "unit fan-out is within limit");
    }

    #[test]
    fn planned_insertions_respect_the_inverter_taper() {
        let lib = lib();
        let cref = lib.min_drive_ff();
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let heavy = c.add_gate(CellKind::Inv, &[a], "heavy").unwrap();
        let mut first_sink = None;
        for i in 0..30 {
            let y = c
                .add_gate(CellKind::Inv, &[heavy], format!("s{i}"))
                .unwrap();
            first_sink.get_or_insert(c.driver_gate(y).unwrap());
            c.mark_output(y);
        }
        let cin: Vec<f64> = vec![cref; c.gate_count()];
        let mut cache = FlimitCache::new();
        let keep = first_sink.unwrap();
        let plan =
            plan_buffer_insertions(&c, &lib, &cin, 0.0, &[heavy], |_, g| g != keep, &mut cache);
        assert_eq!(plan.len(), 1);
        let EditOp::InsertBuffer {
            loads,
            stage_cin_ff,
            ..
        } = &plan.ops()[0]
        else {
            panic!("expected a buffer op");
        };
        // The kept pin stays; 29 pins move.
        assert_eq!(loads.len(), 29);
        assert!(!loads.iter().any(|&(g, _)| g == keep));
        let taper = cache.get(&lib, CellKind::Inv, CellKind::Inv).unwrap();
        let moved_cap = 29.0 * cref;
        // Second stage drives the moved load at (at most) the taper.
        assert!(moved_cap / stage_cin_ff[1] <= taper + 1e-9);
        assert!(stage_cin_ff[0] >= cref && stage_cin_ff[0] <= stage_cin_ff[1]);
        // Applying the plan leaves every net at or under the limits it
        // already respected.
        plan.apply_to(&mut c).unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn flimit_cache_agrees_with_direct_characterization() {
        let lib = lib();
        let mut cache = FlimitCache::new();
        for gate in [CellKind::Inv, CellKind::Nor3] {
            let direct = model_flimit(&lib, CellKind::Inv, gate);
            assert_eq!(cache.get(&lib, CellKind::Inv, gate), direct);
            // Later hits are served from the library's slot.
            assert_eq!(cache.get(&lib, CellKind::Inv, gate), direct);
            assert_eq!(flimit(&lib, CellKind::Inv, gate), direct);
        }
    }

    #[test]
    fn inserted_positions_are_valid_stage_indices() {
        let lib = lib();
        let path = TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::with_load(CellKind::Nor3, 300.0),
                PathStage::new(CellKind::Inv),
            ],
            2.7,
            250.0,
        );
        let (buffered, _) = insert_buffers(&lib, &path);
        for &p in &buffered.inserted_at {
            assert!(p < buffered.path.len());
            assert_eq!(buffered.path.stages()[p].cell, CellKind::Inv);
        }
    }
}
