//! Path acceleration by logic structure modification (§4.2, Table 4).
//!
//! "Instead to speed up a gate with low sensitivity (NOR) with transistor
//! sizing or buffer insertion we use the De Morgan's theorem to replace
//! this gate by a more efficient one (NAND). The number of inserted
//! inverters is the same but the second solution appears less expensive
//! in terms of speed or area."
//!
//! On-path, `NORn` becomes `INV → NANDn → INV` (side inputs receive their
//! own inverters off-path, accounted as a fixed area adder); the NAND's
//! far stronger pull-up replaces the NOR's stacked-PMOS bottleneck, and
//! the flanking inverters provide the same "load dilution" a buffer
//! would.

use std::collections::HashSet;

use pops_delay::{Library, PathStage, TimedPath};
use pops_netlist::surgery::{EditOp, EditPlan};
use pops_netlist::{CellKind, Circuit, GateId};

use crate::bounds::{tmin, TminResult};
use crate::buffer::FlimitCache;

/// Result of a De Morgan restructuring pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RestructuredPath {
    /// The modified path.
    pub path: TimedPath,
    /// Stage indices (in the *new* path) of the replacement NANDs.
    pub replaced_at: Vec<usize>,
    /// Area (fF of input capacitance) of the off-path side-input
    /// inverters implied by De Morgan (`(n−1)` minimum-size inverters per
    /// replaced `NORn`).
    pub side_inverter_cin_ff: f64,
}

impl RestructuredPath {
    /// Number of NOR gates replaced.
    pub fn replacement_count(&self) -> usize {
        self.replaced_at.len()
    }
}

/// Replace every NOR stage of `path` by `INV → NANDn → INV`.
///
/// Only the NOR family is rewritten: Table 2 shows NORs are the
/// inefficient cells (lowest `Flimit`); their NAND duals are strictly
/// stronger on the edge that matters.
///
/// Returns `None` if the path contains no NOR stage (nothing to do).
pub fn demorgan_restructure(lib: &Library, path: &TimedPath) -> Option<RestructuredPath> {
    let has_nor = path
        .stages()
        .iter()
        .any(|s| s.cell.demorgan_dual().is_some() && is_nor(s.cell));
    if !has_nor {
        return None;
    }

    let cref = lib.min_drive_ff();
    let mut stages: Vec<PathStage> = Vec::with_capacity(path.len() + 4);
    let mut replaced_at = Vec::new();
    let mut side_cin = 0.0;
    for stage in path.stages() {
        if is_nor(stage.cell) {
            let dual = stage
                .cell
                .demorgan_dual()
                .expect("NOR cells always have a NAND dual");
            // Input inverter (on-path input only; side inputs get
            // off-path inverters accounted in side_inverter_cin_ff).
            stages.push(PathStage::new(CellKind::Inv));
            replaced_at.push(stages.len());
            stages.push(PathStage::new(dual));
            // Output inverter restores polarity and inherits the node's
            // off-path load (same dilution as a buffer).
            stages.push(PathStage::with_load(CellKind::Inv, stage.off_path_load_ff));
            side_cin += (stage.cell.num_inputs() as f64 - 1.0) * cref;
        } else {
            stages.push(*stage);
        }
    }

    Some(RestructuredPath {
        path: TimedPath::new(stages, path.source_drive_ff(), path.terminal_load_ff())
            .with_input_conditions(path.input_edge(), path.input_transition_ps()),
        replaced_at,
        side_inverter_cin_ff: side_cin,
    })
}

/// Selective critical-node restructuring — the flow the paper actually
/// evaluates in Table 4.
///
/// §4.2 uses `Flimit` as the gate-efficiency measure: "smaller is this
/// limit value, less efficient is the gate, which becomes a good
/// candidate" for structure modification. The flow is deterministic
/// preprocessing, not search:
///
/// 1. size the path to its minimum delay and find the over-limit nodes;
/// 2. every over-limit **NOR** is replaced by its `INV → NAND → INV`
///    De Morgan form (a strictly stronger cell, plus the same load
///    dilution a buffer provides);
/// 3. the ordinary buffer-insertion loop then handles the remaining
///    over-limit nodes.
pub fn restructure_critical(lib: &Library, path: &TimedPath) -> CriticalRestructure {
    let cref = lib.min_drive_ff();
    let base = tmin(lib, path);
    let over = crate::buffer::over_limit_nodes(lib, path, &base.sizes);

    // Replace over-limit NORs, highest stage index first so the recorded
    // positions of lower stages stay valid while we edit.
    let mut nor_nodes: Vec<usize> = over
        .iter()
        .map(|&(node, _)| node)
        .filter(|&node| node >= 1 && is_nor(path.stages()[node].cell))
        .collect();
    nor_nodes.sort_unstable_by(|a, b| b.cmp(a));

    let mut current = path.clone();
    let mut replaced = 0usize;
    let mut side_cin = 0.0;
    for node in nor_nodes {
        let stage = current.stages()[node];
        let dual = stage.cell.demorgan_dual().expect("NORs have duals");
        current = current.with_stage_replaced(node, PathStage::new(CellKind::Inv));
        current = current.with_stage_inserted(node + 1, PathStage::new(dual));
        current = current.with_stage_inserted(
            node + 2,
            PathStage::with_load(CellKind::Inv, stage.off_path_load_ff),
        );
        replaced += 1;
        side_cin += (stage.cell.num_inputs() as f64 - 1.0) * cref;
    }

    // Remaining overloads are handled by buffer pairs, as in §4.1.
    let (buffered, _) = crate::buffer::insert_buffers(lib, &current);
    let mut buffer_stage_count = buffered.buffer_count();
    let mut final_path = buffered.path;

    // "The number of inserted inverters is the same": wherever the buffer
    // loop ended up with [NORn, Inv, Inv], the De Morgan form
    // [Inv, NANDn, Inv] has identical stage count but a strictly stronger
    // middle cell — swap it in.
    let mut pairs: Vec<usize> = buffered
        .inserted_at
        .chunks(2)
        .filter(|c| c.len() == 2 && c[1] == c[0] + 1)
        .map(|c| c[0])
        .collect();
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    for p in pairs {
        if p == 0 {
            continue;
        }
        let host = final_path.stages()[p - 1];
        if let (true, Some(dual)) = (is_nor(host.cell), host.cell.demorgan_dual()) {
            final_path = final_path.with_stage_replaced(p - 1, PathStage::new(CellKind::Inv));
            final_path = final_path.with_stage_replaced(p, PathStage::new(dual));
            // Stage p+1 keeps its inverter and the isolated off-path load.
            replaced += 1;
            buffer_stage_count = buffer_stage_count.saturating_sub(2);
            side_cin += (host.cell.num_inputs() as f64 - 1.0) * cref;
        }
    }

    let modified = replaced > 0 || buffer_stage_count > 0;
    let t = if modified {
        tmin(lib, &final_path)
    } else {
        base
    };

    CriticalRestructure {
        path: final_path,
        tmin: t,
        replaced_nors: replaced,
        inserted_buffers: buffer_stage_count,
        side_inverter_cin_ff: side_cin,
    }
}

/// Result of [`restructure_critical`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalRestructure {
    /// The modified path (may equal the input if nothing helped).
    pub path: TimedPath,
    /// Minimum delay of the modified path.
    pub tmin: TminResult,
    /// NOR gates replaced by their De Morgan form.
    pub replaced_nors: usize,
    /// Plain buffer pairs inserted at non-NOR over-limit nodes.
    pub inserted_buffers: usize,
    /// Off-path side-inverter area implied by the replacements (fF).
    pub side_inverter_cin_ff: f64,
}

impl CriticalRestructure {
    /// Whether the path was modified at all.
    pub fn modified(&self) -> bool {
        self.replaced_nors > 0 || self.inserted_buffers > 0
    }
}

fn is_nor(cell: CellKind) -> bool {
    matches!(cell, CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4)
}

/// Plan De Morgan rewrites for every candidate gate that is an
/// over-limit NOR — the netlist write-back form of
/// [`restructure_critical`]'s selection rule: "smaller is this limit
/// value, less efficient is the gate, which becomes a good candidate".
///
/// Candidates (typically the gates of a critical path) are filtered to
/// the NOR family, then kept only where the output net's effective
/// fan-out `C_L / C_IN` exceeds the gate's `Flimit`; each survivor
/// becomes an [`EditOp::DeMorgan`] whose inverters start at the
/// library's minimum drive (the `(n−1)` side inverters of the paper's
/// area accounting, plus the on-path pair, all left for the sizing
/// rounds to grow as needed). Buffer ops from
/// [`crate::buffer::plan_buffer_insertions`] should be ordered *before*
/// these in a combined plan — a De Morgan rewires its gate's input
/// pins, which would invalidate a buffer op's recorded pin list.
///
/// Candidate gates may repeat; each is planned at most once.
pub fn plan_demorgan_restructure(
    circuit: &Circuit,
    lib: &Library,
    cin_ff: &[f64],
    po_load_ff: f64,
    candidates: &[GateId],
    cache: &mut FlimitCache,
) -> EditPlan {
    assert_eq!(
        cin_ff.len(),
        circuit.gate_count(),
        "one input capacitance per gate"
    );
    let mut plan = EditPlan::new();
    let mut seen: HashSet<GateId> = HashSet::new();
    for &gate in candidates {
        if !seen.insert(gate) {
            continue;
        }
        let kind = circuit.gate(gate).kind();
        if !is_nor(kind) {
            continue;
        }
        // Same load summation and upstream-cell convention as the
        // buffer planner, so both read `Flimit` identically.
        let out = circuit.gate(gate).output();
        let load = crate::buffer::net_load_ff(circuit, cin_ff, po_load_ff, out);
        let upstream = crate::buffer::upstream_cell(circuit, gate);
        let Some(limit) = cache.get(lib, upstream, kind) else {
            continue;
        };
        if load / cin_ff[gate.index()] <= limit {
            continue;
        }
        plan.push(EditOp::DeMorgan {
            gate,
            inv_cin_ff: lib.min_drive_ff(),
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::delay_bounds;
    use crate::sensitivity::distribute_constraint;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn nor_heavy_path() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::with_load(Nor3, 60.0),
                PathStage::new(Nand2),
                PathStage::with_load(Nor3, 80.0),
                PathStage::new(Inv),
            ],
            2.7,
            150.0,
        )
    }

    #[test]
    fn nor_stages_become_inv_nand_inv() {
        let lib = lib();
        let path = nor_heavy_path();
        let r = demorgan_restructure(&lib, &path).unwrap();
        assert_eq!(r.replacement_count(), 2);
        // 5 original stages − 2 NORs + 2×3 replacements = 9 stages.
        assert_eq!(r.path.len(), 9);
        for &at in &r.replaced_at {
            assert_eq!(r.path.stages()[at].cell, CellKind::Nand3);
            assert_eq!(r.path.stages()[at - 1].cell, CellKind::Inv);
            assert_eq!(r.path.stages()[at + 1].cell, CellKind::Inv);
        }
    }

    #[test]
    fn side_inverter_area_counts_n_minus_one_per_nor() {
        let lib = lib();
        let path = nor_heavy_path();
        let r = demorgan_restructure(&lib, &path).unwrap();
        // Two NOR3s → 2 × 2 side inverters at CREF.
        let expect = 4.0 * lib.min_drive_ff();
        assert!((r.side_inverter_cin_ff - expect).abs() < 1e-9);
    }

    #[test]
    fn off_path_load_moves_to_the_output_inverter() {
        let lib = lib();
        let path = nor_heavy_path();
        let r = demorgan_restructure(&lib, &path).unwrap();
        let out_inv = r.replaced_at[0] + 1;
        assert_eq!(r.path.stages()[out_inv].off_path_load_ff, 60.0);
        assert_eq!(r.path.stages()[r.replaced_at[0]].off_path_load_ff, 0.0);
    }

    #[test]
    fn nor_free_path_returns_none() {
        let lib = lib();
        let path = TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::new(CellKind::Nand2),
            ],
            2.7,
            40.0,
        );
        assert!(demorgan_restructure(&lib, &path).is_none());
    }

    #[test]
    fn restructuring_lowers_the_minimum_delay() {
        let lib = lib();
        let path = nor_heavy_path();
        let original = delay_bounds(&lib, &path);
        let rt = tmin(&lib, &demorgan_restructure(&lib, &path).unwrap().path);
        assert!(
            rt.delay_ps < original.tmin_ps,
            "restructured tmin {} !< original {}",
            rt.delay_ps,
            original.tmin_ps
        );
    }

    #[test]
    fn restructuring_beats_buffering_under_a_hard_constraint() {
        // Table 4's claim is *relative to buffer insertion*: when the
        // constraint forces structure modification anyway, replacing the
        // critical NOR by its NAND dual is cheaper than buffering around
        // it.
        use crate::buffer::insert_buffers;
        let lib = lib();
        let path = nor_heavy_path();
        let original = delay_bounds(&lib, &path);
        let tc = 1.1 * original.tmin_ps; // hard domain: buffers in play
        let (buffered, _) = insert_buffers(&lib, &path);
        let buff_sol = distribute_constraint(&lib, &buffered.path, tc).unwrap();
        let r = restructure_critical(&lib, &path);
        assert!(r.replaced_nors > 0, "the critical NOR should be replaced");
        let rest_sol = distribute_constraint(&lib, &r.path, tc).unwrap();
        let rest_area = rest_sol.total_cin_ff + r.side_inverter_cin_ff;
        assert!(
            rest_area < buff_sol.total_cin_ff,
            "restructured area {rest_area} !< buffered {}",
            buff_sol.total_cin_ff
        );
    }

    #[test]
    fn critical_restructure_improves_tmin_on_loaded_nors() {
        let lib = lib();
        let path = nor_heavy_path();
        let before = delay_bounds(&lib, &path);
        let r = restructure_critical(&lib, &path);
        assert!(r.modified());
        assert!(r.tmin.delay_ps < before.tmin_ps);
    }

    #[test]
    fn critical_restructure_is_a_no_op_on_light_paths() {
        let lib = lib();
        let path = TimedPath::new(
            vec![
                PathStage::new(CellKind::Inv),
                PathStage::new(CellKind::Nand2),
            ],
            2.7,
            12.0,
        );
        let r = restructure_critical(&lib, &path);
        assert!(!r.modified());
        assert_eq!(r.path.len(), path.len());
    }

    #[test]
    fn plan_demorgan_picks_only_over_limit_nors() {
        let lib = lib();
        let cref = lib.min_drive_ff();
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        // Heavily loaded NOR2, lightly loaded NOR2, heavily loaded NAND2.
        let heavy_nor = c.add_gate(CellKind::Nor2, &[a, b], "hn").unwrap();
        let light_nor = c.add_gate(CellKind::Nor2, &[a, b], "ln").unwrap();
        let heavy_nand = c.add_gate(CellKind::Nand2, &[a, b], "hd").unwrap();
        for i in 0..20 {
            let y = c
                .add_gate(CellKind::Inv, &[heavy_nor], format!("x{i}"))
                .unwrap();
            c.mark_output(y);
            let z = c
                .add_gate(CellKind::Inv, &[heavy_nand], format!("w{i}"))
                .unwrap();
            c.mark_output(z);
        }
        let l = c.add_gate(CellKind::Inv, &[light_nor], "l").unwrap();
        c.mark_output(l);
        let cin: Vec<f64> = vec![cref; c.gate_count()];
        let mut cache = FlimitCache::new();
        let candidates: Vec<GateId> = c.gate_ids().collect();
        let plan = plan_demorgan_restructure(&c, &lib, &cin, 0.0, &candidates, &mut cache);
        let gates: Vec<GateId> = plan
            .ops()
            .iter()
            .map(|op| match op {
                EditOp::DeMorgan { gate, .. } => *gate,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(gates, vec![c.driver_gate(heavy_nor).unwrap()]);
        // Applying keeps the netlist valid and swaps in the dual.
        plan.apply_to(&mut c).unwrap();
        c.validate().unwrap();
        assert_eq!(
            c.gate(c.driver_gate(c.net_by_name("hn_dmz").unwrap()).unwrap())
                .kind(),
            CellKind::Nand2
        );
    }

    #[test]
    fn restructured_path_keeps_boundary_conditions() {
        let lib = lib();
        let path = nor_heavy_path();
        let r = demorgan_restructure(&lib, &path).unwrap();
        assert_eq!(r.path.source_drive_ff(), path.source_drive_ff());
        assert_eq!(r.path.terminal_load_ff(), path.terminal_load_ff());
        assert_eq!(r.path.input_edge(), path.input_edge());
    }
}
