//! Bench-regression gate: compare freshly produced `BENCH_*.json`
//! artifacts against the committed baselines and fail when a speedup
//! regresses past the tolerance.
//!
//! ```text
//! bench_gate <baseline_dir> <current_dir> [--tolerance <fraction>]
//! ```
//!
//! Every `BENCH_*.json` in `<baseline_dir>` that also exists in
//! `<current_dir>` is parsed as an array of row objects; rows are keyed
//! by their `kind` and `circuit` members plus the optional `k` member
//! (a batch size). For each pair of rows, every `speedup_*` member in
//! the baseline must be matched by a current value no lower than
//! `baseline · (1 − tolerance)` (default tolerance 0.20 — bench
//! runners are noisy; the gate catches real regressions, not jitter). A baseline row or member missing from
//! the current artifact fails too: silently dropping a measurement is
//! how regressions hide. The one escape hatch is a baseline row
//! carrying `"optional": true` — those rows may be absent from the
//! current run (the scaling bench's large classes and machine-dependent
//! rows are committed from a full local run, while CI regenerates only
//! the small class); when present they are gated normally.
//!
//! Exit code 0 when everything passes, 1 otherwise, with one line per
//! comparison on stdout.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pops_bench::json::{parse, Value};

/// The gated members: medians are the headline numbers the acceptance
/// criteria quote; means ride along with the same tolerance.
const GATED: [&str; 2] = ["speedup_median", "speedup_mean"];

fn row_key(row: &Value) -> String {
    let mut key = row
        .get("circuit")
        .and_then(Value::as_str)
        .unwrap_or("<unkeyed>")
        .to_string();
    // Row families of one artifact can share a circuit (the scaling
    // bench's forward and backward sweep rows), so the family tag leads
    // the key when present.
    if let Some(kind) = row.get("kind").and_then(Value::as_str) {
        key = format!("{kind} {key}");
    }
    if let Some(k) = row.get("k").and_then(Value::as_f64) {
        key.push_str(&format!(" K={k}"));
    }
    key
}

/// A baseline row that the current run is allowed to omit (it still
/// gates normally whenever the current artifact does contain it).
fn is_optional(row: &Value) -> bool {
    row.get("optional") == Some(&Value::Bool(true))
}

fn load_rows(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    value
        .as_array()
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{} is not a JSON array", path.display()))
}

fn gate_file(name: &str, baseline: &Path, current: &Path, tolerance: f64) -> Result<usize, String> {
    let base_rows = load_rows(baseline)?;
    let cur_rows = load_rows(current)?;
    Ok(gate_rows(name, &base_rows, &cur_rows, tolerance))
}

fn gate_rows(name: &str, base_rows: &[Value], cur_rows: &[Value], tolerance: f64) -> usize {
    let mut failures = 0usize;
    for base in base_rows {
        let key = row_key(base);
        let Some(cur) = cur_rows.iter().find(|r| row_key(r) == key) else {
            if is_optional(base) {
                println!("skip {name} [{key}]: optional row not produced by this run");
            } else {
                println!("FAIL {name} [{key}]: row missing from current artifact");
                failures += 1;
            }
            continue;
        };
        for member in GATED {
            failures += gate_member(name, &key, member, base, cur, tolerance);
        }
    }
    failures
}

/// Gate one speedup member of one row pair; returns the failure count
/// (0 or 1). A member absent from the baseline gates nothing.
fn gate_member(
    name: &str,
    key: &str,
    member: &str,
    base: &Value,
    cur: &Value,
    tolerance: f64,
) -> usize {
    let Some(want) = base.get(member).and_then(Value::as_f64) else {
        return 0;
    };
    let floor = want * (1.0 - tolerance);
    match cur.get(member).and_then(Value::as_f64) {
        Some(got) if got >= floor => {
            println!("  ok {name} [{key}] {member}: {got:.3} vs baseline {want:.3}");
            0
        }
        Some(got) => {
            println!(
                "FAIL {name} [{key}] {member}: {got:.3} < floor {floor:.3} \
                 (baseline {want:.3}, tolerance {tolerance})"
            );
            1
        }
        None => {
            println!("FAIL {name} [{key}] {member}: missing from current artifact");
            1
        }
    }
}

/// Parse and validate a `--tolerance` value. The tolerance is the
/// *fraction of the baseline a speedup may drop* before the gate fails,
/// so only `0 < t < 1` gates anything sensible: zero rejects every
/// benign jitter, a negative value demands current runs *beat* the
/// baseline, `NaN` poisons every floor into `NaN` (failing every row
/// regardless of the data), and `t >= 1` drops the floor to zero or
/// below — a gate that can never fire. All of those are operator
/// errors, not thresholds; reject them loudly instead of gating with a
/// nonsense floor.
fn parse_tolerance(raw: Option<&str>) -> Result<f64, String> {
    let raw = raw.ok_or("--tolerance takes a fraction, e.g. 0.2")?;
    let t: f64 = raw
        .parse()
        .map_err(|_| format!("--tolerance: not a number: {raw:?}"))?;
    if t.is_nan() {
        return Err("--tolerance: NaN is not a threshold".into());
    }
    if t <= 0.0 {
        return Err(format!(
            "--tolerance: must be positive, got {t} (a zero or negative \
             tolerance fails every comparison instead of gating regressions)"
        ));
    }
    if t >= 1.0 {
        return Err(format!(
            "--tolerance: must be below 1, got {t} (the floor would drop \
             to zero or below and the gate could never fire)"
        ));
    }
    Ok(t)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.20f64;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            tolerance = match parse_tolerance(it.next().map(String::as_str)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [baseline_dir, current_dir] = &dirs[..] else {
        eprintln!("usage: bench_gate <baseline_dir> <current_dir> [--tolerance <fraction>]");
        return ExitCode::FAILURE;
    };

    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot list {}: {e}", baseline_dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_*.json baselines in {}", baseline_dir.display());
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    for name in &names {
        let current = current_dir.join(name);
        if !current.exists() {
            // The artifact was not regenerated in this run: nothing to
            // gate (the committed copy is by definition unregressed).
            println!("skip {name}: not produced by this run");
            continue;
        }
        compared += 1;
        match gate_file(name, &baseline_dir.join(name), &current, tolerance) {
            Ok(n) => failures += n,
            Err(e) => {
                println!("FAIL {e}");
                failures += 1;
            }
        }
    }

    println!(
        "bench gate: {compared} artifact(s) compared, {failures} failure(s), tolerance {tolerance}"
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{gate_rows, parse_tolerance, row_key};
    use pops_bench::json::{parse, Value};

    fn rows(json: &str) -> Vec<Value> {
        parse(json).unwrap().as_array().unwrap().to_vec()
    }

    #[test]
    fn row_keys_distinguish_batch_sizes() {
        let r = rows(
            r#"[
                {"circuit":"synth10k"},
                {"circuit":"synth10k","k":8},
                {"circuit":"synth10k","k":64}
            ]"#,
        );
        let keys: Vec<String> = r.iter().map(row_key).collect();
        assert_eq!(keys, ["synth10k", "synth10k K=8", "synth10k K=64"]);
    }

    #[test]
    fn row_keys_distinguish_sweep_directions() {
        // The scaling bench's forward and backward sweep rows share a
        // circuit; only the `kind` tells them apart.
        let r = rows(
            r#"[
                {"kind":"full_sweep","circuit":"synth10k"},
                {"kind":"backward_sweep","circuit":"synth10k"}
            ]"#,
        );
        let keys: Vec<String> = r.iter().map(row_key).collect();
        assert_eq!(keys, ["full_sweep synth10k", "backward_sweep synth10k"]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn missing_optional_rows_are_skipped_not_failed() {
        let base = rows(
            r#"[
                {"circuit":"synth100k","k":8,"speedup_median":2.0,"optional":true},
                {"circuit":"synth10k","k":8,"speedup_median":2.0}
            ]"#,
        );
        // Current run produced only the mandatory row, unregressed.
        let cur = rows(r#"[{"circuit":"synth10k","k":8,"speedup_median":1.9}]"#);
        assert_eq!(gate_rows("t", &base, &cur, 0.2), 0);
        // Dropping the mandatory row still fails.
        assert_eq!(gate_rows("t", &base, &[], 0.2), 1);
    }

    #[test]
    fn present_optional_rows_still_gate() {
        let base = rows(r#"[{"circuit":"synth100k","k":8,"speedup_median":2.0,"optional":true}]"#);
        let regressed = rows(r#"[{"circuit":"synth100k","k":8,"speedup_median":1.0}]"#);
        assert_eq!(gate_rows("t", &base, &regressed, 0.2), 1);
        let fine = rows(r#"[{"circuit":"synth100k","k":8,"speedup_median":1.9}]"#);
        assert_eq!(gate_rows("t", &base, &fine, 0.2), 0);
    }

    #[test]
    fn k_rows_do_not_collide() {
        // Two batch-size rows of the same circuit: each must match its
        // own counterpart, not the first row that shares the circuit
        // name.
        let base = rows(
            r#"[
                {"circuit":"synth10k","k":8,"speedup_median":1.0},
                {"circuit":"synth10k","k":64,"speedup_median":3.0}
            ]"#,
        );
        let cur = rows(
            r#"[
                {"circuit":"synth10k","k":64,"speedup_median":3.1},
                {"circuit":"synth10k","k":8,"speedup_median":1.0}
            ]"#,
        );
        assert_eq!(gate_rows("t", &base, &cur, 0.2), 0);
        // Regress only the K=64 row: exactly one failure.
        let cur = rows(
            r#"[
                {"circuit":"synth10k","k":64,"speedup_median":1.5},
                {"circuit":"synth10k","k":8,"speedup_median":1.0}
            ]"#,
        );
        assert_eq!(gate_rows("t", &base, &cur, 0.2), 1);
    }

    #[test]
    fn sensible_fractions_parse() {
        assert_eq!(parse_tolerance(Some("0.2")).unwrap(), 0.2);
        assert_eq!(parse_tolerance(Some("0.05")).unwrap(), 0.05);
        assert_eq!(parse_tolerance(Some("0.999")).unwrap(), 0.999);
    }

    #[test]
    fn nonsense_thresholds_are_rejected() {
        // Each of these used to gate silently with a meaningless floor.
        for bad in ["0", "0.0", "-0.3", "NaN", "-NaN", "1", "1.5", "inf", "-inf"] {
            assert!(
                parse_tolerance(Some(bad)).is_err(),
                "tolerance {bad:?} must be rejected"
            );
        }
        assert!(parse_tolerance(Some("not-a-number")).is_err());
        assert!(parse_tolerance(None).is_err(), "missing value");
    }
}
