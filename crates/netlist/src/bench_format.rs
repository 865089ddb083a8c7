//! ISCAS'85 `.bench` format reader and writer.
//!
//! The `.bench` dialect accepted here is the common combinational subset:
//!
//! ```text
//! # c17 — smallest ISCAS'85 benchmark
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Sequential elements (`DFF`) are rejected — the paper optimizes
//! combinational paths between latches, so netlists handed to the tool are
//! already latch-bounded.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::cell::CellKind;
use crate::circuit::Circuit;
use crate::error::NetlistError;

/// Parse `.bench` text into a [`Circuit`].
///
/// Net declaration order is preserved; forward references are allowed (a
/// gate may use a net defined later in the file), as in the original
/// benchmark distribution.
///
/// # Errors
///
/// [`NetlistError::BenchSyntax`] for malformed lines,
/// [`NetlistError::UnknownCell`] for unsupported operators, and the usual
/// structural errors (multiple drivers, cycles) from circuit construction.
///
/// # Example
///
/// ```
/// use pops_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let c = parse_bench(
///     "toy",
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
/// )?;
/// assert_eq!(c.gate_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, text: &str) -> Result<Circuit, NetlistError> {
    struct PendingGate {
        line: usize,
        op: String,
        operands: Vec<String>,
        output: String,
    }

    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut pending: Vec<PendingGate> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if stripped.is_empty() {
            continue;
        }
        let syntax = |message: String| NetlistError::BenchSyntax { line, message };

        if let Some(rest) = strip_directive(stripped, "INPUT", line) {
            inputs.push((line, rest?.to_string()));
        } else if let Some(rest) = strip_directive(stripped, "OUTPUT", line) {
            outputs.push((line, rest?.to_string()));
        } else if let Some(eq) = stripped.find('=') {
            let output = stripped[..eq].trim();
            let rhs = stripped[eq + 1..].trim();
            if output.is_empty() {
                return Err(syntax("missing output name before `=`".into()));
            }
            let open = rhs
                .find('(')
                .ok_or_else(|| syntax(format!("expected `OP(...)`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(syntax(format!("missing closing `)` in `{rhs}`")));
            }
            let op = rhs[..open].trim().to_string();
            let operands: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if operands.is_empty() {
                return Err(syntax(format!("gate `{output}` has no operands")));
            }
            if op.eq_ignore_ascii_case("DFF") {
                return Err(syntax(
                    "sequential element DFF not supported; supply latch-bounded \
                     combinational logic"
                        .into(),
                ));
            }
            pending.push(PendingGate {
                line,
                op,
                operands,
                output: output.to_string(),
            });
        } else {
            return Err(syntax(format!("unrecognized statement `{stripped}`")));
        }
    }

    let mut circuit = Circuit::new(name);
    let mut declared: HashMap<String, crate::circuit::NetId> = HashMap::new();
    for (line, input) in &inputs {
        if declared.contains_key(input) {
            return Err(NetlistError::BenchSyntax {
                line: *line,
                message: format!("input `{input}` declared twice"),
            });
        }
        let id = circuit.add_input(input.clone());
        declared.insert(input.clone(), id);
    }
    // Pre-declare every gate output so forward references resolve.
    for gate in &pending {
        if declared.contains_key(&gate.output) {
            return Err(NetlistError::BenchSyntax {
                line: gate.line,
                message: format!("net `{}` driven twice", gate.output),
            });
        }
        let id = circuit.add_net(gate.output.clone());
        declared.insert(gate.output.clone(), id);
    }
    for gate in &pending {
        let kind = CellKind::from_op(&gate.op, gate.operands.len())?;
        let ins: Result<Vec<_>, _> = gate
            .operands
            .iter()
            .map(|o| {
                declared
                    .get(o)
                    .copied()
                    .ok_or_else(|| NetlistError::UndefinedNet(o.clone()))
            })
            .collect();
        circuit.add_gate_driving(kind, &ins?, declared[&gate.output])?;
    }
    for (line, output) in &outputs {
        match declared.get(output) {
            Some(&id) => circuit.mark_output(id),
            None => {
                return Err(NetlistError::BenchSyntax {
                    line: *line,
                    message: format!("OUTPUT references undefined net `{output}`"),
                })
            }
        }
    }
    circuit.validate()?;
    Ok(circuit)
}

fn strip_directive<'a>(
    line: &'a str,
    keyword: &str,
    lineno: usize,
) -> Option<Result<&'a str, NetlistError>> {
    // A line with `=` is a gate assignment, even when its output's
    // name starts with a directive keyword (`output_1 = NOT(a)`).
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) || line.contains('=') {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    if let Some(inner) = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(Err(NetlistError::BenchSyntax {
                line: lineno,
                message: format!("{keyword} with empty name"),
            }));
        }
        Some(Ok(inner))
    } else {
        Some(Err(NetlistError::BenchSyntax {
            line: lineno,
            message: format!("malformed {keyword} directive: `{line}`"),
        }))
    }
}

/// Serialize a [`Circuit`] to `.bench` text.
///
/// The output parses back (`parse_bench`) to a structurally identical
/// circuit: same inputs/outputs, same gates in the same net-name space.
///
/// # Example
///
/// ```
/// use pops_netlist::bench_format::{parse_bench, write_bench};
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let c = parse_bench("t", src)?;
/// let round = parse_bench("t", &write_bench(&c))?;
/// assert_eq!(round.gate_count(), c.gate_count());
/// # Ok(())
/// # }
/// ```
pub fn write_bench(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} gates",
        circuit.primary_inputs().len(),
        circuit.primary_outputs().len(),
        circuit.gate_count()
    );
    for &n in circuit.primary_inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.net(n).name());
    }
    for &n in circuit.primary_outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.net(n).name());
    }
    // Emit in topological order so humans can read the file top-down.
    let order = circuit
        .topo_order()
        .expect("write_bench requires an acyclic circuit");
    for gid in order {
        let gate = circuit.gate(gid);
        let operands: Vec<&str> = gate
            .inputs()
            .iter()
            .map(|&n| circuit.net(n).name())
            .collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            circuit.net(gate.output()).name(),
            gate.kind().name(),
            operands.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const C17: &str = "\
# c17 ISCAS'85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse_bench("c17", C17).unwrap();
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.primary_inputs().len(), 5);
        assert_eq!(c.primary_outputs().len(), 2);
        assert_eq!(c.depth().unwrap(), 3);
    }

    #[test]
    fn c17_functional_check() {
        let c = parse_bench("c17", C17).unwrap();
        // Reference: 22 = !( !(1&3) & !(2 & !(3&6)) )
        let eval = |v1: bool, v2: bool, v3: bool, v6: bool, v7: bool| {
            let vals: HashMap<&str, bool> = [("1", v1), ("2", v2), ("3", v3), ("6", v6), ("7", v7)]
                .into_iter()
                .collect();
            c.evaluate(&vals).unwrap()
        };
        for bits in 0..32u32 {
            let b = |i: u32| bits >> i & 1 == 1;
            let (v1, v2, v3, v6, v7) = (b(0), b(1), b(2), b(3), b(4));
            let n10 = !(v1 && v3);
            let n11 = !(v3 && v6);
            let n16 = !(v2 && n11);
            let n19 = !(n11 && v7);
            let out = eval(v1, v2, v3, v6, v7);
            assert_eq!(out["22"], !(n10 && n16));
            assert_eq!(out["23"], !(n16 && n19));
        }
    }

    #[test]
    fn round_trip_preserves_structure_and_function() {
        let c = parse_bench("c17", C17).unwrap();
        let text = write_bench(&c);
        let r = parse_bench("c17", &text).unwrap();
        assert_eq!(r.gate_count(), c.gate_count());
        assert_eq!(r.primary_inputs().len(), c.primary_inputs().len());
        assert_eq!(r.primary_outputs().len(), c.primary_outputs().len());
        for bits in 0..32u32 {
            let b = |i: u32| bits >> i & 1 == 1;
            let vals: HashMap<&str, bool> = [
                ("1", b(0)),
                ("2", b(1)),
                ("3", b(2)),
                ("6", b(3)),
                ("7", b(4)),
            ]
            .into_iter()
            .collect();
            assert_eq!(c.evaluate(&vals).unwrap(), r.evaluate(&vals).unwrap());
        }
    }

    #[test]
    fn forward_references_are_accepted() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = NOT(a)\n";
        let c = parse_bench("fwd", src).unwrap();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.depth().unwrap(), 2);
    }

    #[test]
    fn rejects_dff() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        let err = parse_bench("seq", src).unwrap_err();
        assert!(matches!(err, NetlistError::BenchSyntax { .. }), "{err}");
    }

    #[test]
    fn rejects_double_drive() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n";
        let err = parse_bench("dd", src).unwrap_err();
        assert!(matches!(err, NetlistError::BenchSyntax { .. }), "{err}");
    }

    #[test]
    fn rejects_unknown_operator() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = MAJ(a, b, c)\n";
        let err = parse_bench("maj", src).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }), "{err}");
    }

    #[test]
    fn rejects_missing_paren() {
        let err = parse_bench("bad", "INPUT(a)\ny = NOT a\n").unwrap_err();
        assert!(matches!(err, NetlistError::BenchSyntax { .. }));
    }

    #[test]
    fn rejects_undefined_output() {
        let err = parse_bench("bad", "INPUT(a)\nOUTPUT(nope)\n").unwrap_err();
        assert!(matches!(err, NetlistError::BenchSyntax { .. }));
    }

    #[test]
    fn gate_outputs_named_like_directives_are_gates() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(output_1)\noutput_1 = NOT(a)\n").unwrap();
        assert_eq!(c.gate_count(), 1);
        let src = "INPUT(a)\nOUTPUT(y)\n\
                   input_inv = NOT(a)\nInput2 = NOT(a)\ny = AND(input_inv, Input2)\n";
        let c = parse_bench("t", src).unwrap();
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn directive_like_names_round_trip() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let inv = c.add_gate(CellKind::Inv, &[a], "input_inv").unwrap();
        let y = c.add_gate(CellKind::Inv, &[inv], "OUTPUT_1").unwrap();
        c.mark_output(y);
        let r = parse_bench("t", &write_bench(&c)).unwrap();
        assert_eq!(r.gate_count(), 2);
        for v in [false, true] {
            let vals: HashMap<&str, bool> = [("a", v)].into_iter().collect();
            assert_eq!(r.evaluate(&vals).unwrap(), c.evaluate(&vals).unwrap());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n# hello\nINPUT(a)  # trailing\n\nOUTPUT(y)\ny = NOT(a)\n";
        let c = parse_bench("c", src).unwrap();
        assert_eq!(c.gate_count(), 1);
    }
}
