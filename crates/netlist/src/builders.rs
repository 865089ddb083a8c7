//! Structural netlist builders.
//!
//! Inverter chains, a genuine gate-level ripple-carry adder used as the
//! `Adder16` workload, and the parameterized generators (carry-select
//! adders, array multipliers, seeded random-logic clouds) that
//! [`synthetic_fabric`] composes into the scaling fabrics.

use crate::cell::CellKind;
use crate::circuit::{Circuit, NetDriver, NetId};
use crate::error::NetlistError;
use crate::rng::SplitMix64;

/// Build a chain of `n` inverters: `in -> inv -> inv -> ... -> out`.
///
/// The canonical tapered-buffer optimization testbed (Mead & Rem, ref.
/// \[15\] of the paper).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// let c = pops_netlist::builders::inverter_chain(5);
/// assert_eq!(c.gate_count(), 5);
/// assert_eq!(c.depth().unwrap(), 5);
/// ```
pub fn inverter_chain(n: usize) -> Circuit {
    assert!(n > 0, "inverter_chain requires at least one stage");
    let mut c = Circuit::new(format!("inv_chain_{n}"));
    let mut prev = c.add_input("in");
    for i in 0..n {
        prev = c
            .add_gate(CellKind::Inv, &[prev], format!("s{i}"))
            .expect("arity is correct by construction");
    }
    c.mark_output(prev);
    c
}

/// One full adder in NAND-only form. Returns `(sum, carry_out)`.
///
/// Decomposition (9 NAND2 gates, the `NAND(a,b)` term shared between the
/// propagate XOR and the carry):
/// `p = a XOR b`, `sum = p XOR cin`, `cout = NAND(NAND(a,b), NAND(p,cin))`.
fn full_adder(
    c: &mut Circuit,
    a: NetId,
    b: NetId,
    cin: NetId,
    tag: &str,
) -> Result<(NetId, NetId), NetlistError> {
    // p = a XOR b, exposing the shared NAND(a, b) term.
    let nab = c.add_gate(CellKind::Nand2, &[a, b], format!("{tag}_nab"))?;
    let pa = c.add_gate(CellKind::Nand2, &[a, nab], format!("{tag}_pa"))?;
    let pb = c.add_gate(CellKind::Nand2, &[b, nab], format!("{tag}_pb"))?;
    let p = c.add_gate(CellKind::Nand2, &[pa, pb], format!("{tag}_p"))?;
    // sum = p XOR cin, exposing NAND(p, cin) for the carry.
    let npc = c.add_gate(CellKind::Nand2, &[p, cin], format!("{tag}_npc"))?;
    let sa = c.add_gate(CellKind::Nand2, &[p, npc], format!("{tag}_sa"))?;
    let sb = c.add_gate(CellKind::Nand2, &[cin, npc], format!("{tag}_sb"))?;
    let sum = c.add_gate(CellKind::Nand2, &[sa, sb], format!("{tag}_s_x"))?;
    let cout = c.add_gate(CellKind::Nand2, &[nab, npc], format!("{tag}_co"))?;
    Ok((sum, cout))
}

/// Build an `n`-bit ripple-carry adder from NAND2 gates only
/// (XORs decomposed). Inputs `a0..a{n-1}`, `b0..b{n-1}`, `cin`; outputs
/// `sum0..sum{n-1}`, `cout`.
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// # Example
///
/// ```
/// let adder = pops_netlist::builders::ripple_carry_adder(4);
/// assert_eq!(adder.primary_outputs().len(), 5); // 4 sums + carry
/// ```
pub fn ripple_carry_adder(bits: usize) -> Circuit {
    assert!(bits > 0, "adder needs at least one bit");
    let mut c = Circuit::new(format!("adder{bits}"));
    let a: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("b{i}"))).collect();
    let mut carry = c.add_input("cin");
    for i in 0..bits {
        let (sum, cout) = full_adder(&mut c, a[i], b[i], carry, &format!("fa{i}"))
            .expect("full adder construction is statically valid");
        c.mark_output(sum);
        carry = cout;
    }
    c.mark_output(carry);
    c
}

/// Derive constant-0 and constant-1 nets from an arbitrary `seed` net:
/// `0 = seed AND NOT seed`, `1 = seed OR NOT seed`. The netlist format has
/// no constant cells, so blocks that need a tied-off carry (carry-select
/// speculation) synthesize the constants structurally.
fn constant_pair(c: &mut Circuit, seed: NetId, tag: &str) -> (NetId, NetId) {
    let n = c
        .add_gate(CellKind::Inv, &[seed], format!("{tag}_kn"))
        .expect("arity correct");
    let zero = c
        .add_gate(CellKind::And2, &[seed, n], format!("{tag}_k0"))
        .expect("arity correct");
    let one = c
        .add_gate(CellKind::Or2, &[seed, n], format!("{tag}_k1"))
        .expect("arity correct");
    (zero, one)
}

/// NAND-decomposed 2:1 mux: `out = s ? b : a`. Callers pass the inverted
/// select `ns` so one inverter can serve a whole selected block.
fn mux2(
    c: &mut Circuit,
    a: NetId,
    b: NetId,
    s: NetId,
    ns: NetId,
    name: String,
) -> Result<NetId, NetlistError> {
    let t0 = c.add_gate(CellKind::Nand2, &[a, ns], format!("{name}_t0"))?;
    let t1 = c.add_gate(CellKind::Nand2, &[b, s], format!("{name}_t1"))?;
    c.add_gate(CellKind::Nand2, &[t0, t1], name)
}

/// Emit an `bits`-wide carry-select adder into `c`. Every block computes
/// both speculative ripple chains (carry-in 0 and 1) and the block carry
/// selects sums and carry-out through muxes; block 0 selects on `cin`
/// itself. Returns `(sums, carry_out)`; marks nothing as output.
fn carry_select_into(
    c: &mut Circuit,
    prefix: &str,
    block_bits: usize,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> (Vec<NetId>, NetId) {
    let bits = a.len();
    assert!(bits > 0 && bits == b.len() && block_bits > 0);
    let (zero, one) = constant_pair(c, a[0], &format!("{prefix}c"));
    let mut sums = Vec::with_capacity(bits);
    let mut select = cin;
    let mut blk = 0usize;
    let mut lo = 0usize;
    while lo < bits {
        let hi = (lo + block_bits).min(bits);
        // Two speculative ripple chains over bits [lo, hi).
        let mut carry = [zero, one];
        let mut spec: Vec<[NetId; 2]> = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let mut pair = [zero; 2];
            for (v, cr) in carry.into_iter().enumerate() {
                let (s, co) = full_adder(c, a[i], b[i], cr, &format!("{prefix}b{blk}v{v}_fa{i}"))
                    .expect("full adder construction is statically valid");
                pair[v] = s;
                carry[v] = co;
            }
            spec.push(pair);
        }
        // Select on the block's true carry-in.
        let ns = c
            .add_gate(CellKind::Inv, &[select], format!("{prefix}b{blk}_ns"))
            .expect("arity correct");
        for (i, pair) in spec.iter().enumerate() {
            let s = mux2(
                c,
                pair[0],
                pair[1],
                select,
                ns,
                format!("{prefix}s{}", lo + i),
            )
            .expect("arity correct");
            sums.push(s);
        }
        select = mux2(
            c,
            carry[0],
            carry[1],
            select,
            ns,
            format!("{prefix}co{blk}"),
        )
        .expect("arity correct");
        lo = hi;
        blk += 1;
    }
    (sums, select)
}

/// Build an `bits`-bit carry-select adder (blocks of `block_bits`).
/// Inputs `a0..`, `b0..`, `cin`; outputs `s0..s{bits-1}`, then the carry —
/// `primary_outputs()` is exactly that order.
///
/// # Panics
///
/// Panics if `bits == 0` or `block_bits == 0`.
pub fn carry_select_adder(bits: usize, block_bits: usize) -> Circuit {
    let mut c = Circuit::new(format!("csel_adder{bits}"));
    let a: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("b{i}"))).collect();
    let cin = c.add_input("cin");
    let (sums, cout) = carry_select_into(&mut c, "", block_bits, &a, &b, cin);
    for s in sums {
        c.mark_output(s);
    }
    c.mark_output(cout);
    c
}

/// Half adder: `(sum, carry) = (x XOR y, x AND y)`.
fn half_adder(c: &mut Circuit, x: NetId, y: NetId, tag: &str) -> (NetId, NetId) {
    let s = c
        .add_gate(CellKind::Xor2, &[x, y], format!("{tag}_s"))
        .expect("arity correct");
    let co = c
        .add_gate(CellKind::And2, &[x, y], format!("{tag}_c"))
        .expect("arity correct");
    (s, co)
}

/// Emit a schoolbook carry-propagate array multiplier into `c`: AND-gate
/// partial products reduced row by row with ripple full/half adders.
/// Returns the `2n` product nets, LSB first; marks nothing as output.
fn array_multiplier_into(c: &mut Circuit, prefix: &str, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    let n = a.len();
    assert!(n >= 2 && n == b.len());
    let pp = |c: &mut Circuit, i: usize, j: usize, a: NetId, b: NetId| {
        c.add_gate(CellKind::And2, &[a, b], format!("{prefix}pp{i}_{j}"))
            .expect("arity correct")
    };
    // Accumulator holds the running partial-sum bits for weights
    // i..i+len-1 before row i is added.
    let mut acc: Vec<NetId> = (0..n).map(|j| pp(c, 0, j, a[0], b[j])).collect();
    let mut products = Vec::with_capacity(2 * n);
    for (i, &ai) in a.iter().enumerate().skip(1) {
        products.push(acc[0]); // weight i-1 is final
        let mut next = Vec::with_capacity(n + 1);
        let mut carry: Option<NetId> = None;
        for (j, &bj) in b.iter().enumerate() {
            let x = pp(c, i, j, ai, bj);
            let y = acc.get(j + 1).copied();
            let tag = format!("{prefix}r{i}_{j}");
            let s = match (y, carry) {
                (Some(y), Some(cr)) => {
                    let (s, co) =
                        full_adder(c, x, y, cr, &tag).expect("full adder is statically valid");
                    carry = Some(co);
                    s
                }
                (Some(y), None) => {
                    let (s, co) = half_adder(c, x, y, &tag);
                    carry = Some(co);
                    s
                }
                (None, Some(cr)) => {
                    let (s, co) = half_adder(c, x, cr, &tag);
                    carry = Some(co);
                    s
                }
                (None, None) => x,
            };
            next.push(s);
        }
        if let Some(cr) = carry {
            next.push(cr);
        }
        acc = next;
    }
    products.extend(acc);
    debug_assert_eq!(products.len(), 2 * n);
    products
}

/// Build an `bits`×`bits` array multiplier (the c6288 structure, scaled).
/// Inputs `a0..`, `b0..`; `primary_outputs()` is the `2*bits`-bit product,
/// LSB first.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn array_multiplier(bits: usize) -> Circuit {
    let mut c = Circuit::new(format!("array_mult{bits}"));
    let a: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| c.add_input(format!("b{i}"))).collect();
    for p in array_multiplier_into(&mut c, "", &a, &b) {
        c.mark_output(p);
    }
    c
}

const CLOUD_MIX: &[(CellKind, u32)] = &[
    (CellKind::Nand2, 30),
    (CellKind::Nor2, 15),
    (CellKind::Inv, 15),
    (CellKind::And2, 10),
    (CellKind::Or2, 10),
    (CellKind::Xor2, 10),
    (CellKind::Nand3, 5),
    (CellKind::Nor3, 5),
];

/// Grow `gates` random-logic gates into `c`, layered so levels are wide
/// (good for level-parallel evaluation) and sampling fanins with a
/// recency bias from `seeds` and previously created layers.
fn cloud_into(c: &mut Circuit, rng: &mut SplitMix64, prefix: &str, seeds: &[NetId], gates: usize) {
    assert!(!seeds.is_empty());
    if gates == 0 {
        return;
    }
    let levels = (gates as f64).sqrt().round() as usize;
    let levels = levels.clamp(1, 512).min(gates);
    let weights: Vec<u32> = CLOUD_MIX.iter().map(|&(_, w)| w).collect();
    let mut pool: Vec<Vec<NetId>> = vec![seeds.to_vec()];
    let mut remaining = gates;
    for layer in 1..=levels {
        let at_this = remaining / (levels - layer + 1);
        let at_this = if layer == levels {
            remaining
        } else {
            at_this.max(1)
        };
        let mut created = Vec::with_capacity(at_this);
        for g in 0..at_this {
            let kind = CLOUD_MIX[rng.weighted(&weights)].0;
            let mut inputs: Vec<NetId> = Vec::with_capacity(kind.num_inputs());
            while inputs.len() < kind.num_inputs() {
                // Recency bias: 70% previous layer, else any lower layer.
                let l = if rng.chance(0.7) {
                    layer - 1
                } else {
                    rng.below(layer)
                };
                let bucket = &pool[l];
                let mut pick = bucket[rng.below(bucket.len())];
                for _ in 0..4 {
                    if !inputs.contains(&pick) {
                        break;
                    }
                    pick = bucket[rng.below(bucket.len())];
                }
                inputs.push(pick);
            }
            let out = c
                .add_gate(kind, &inputs, format!("{prefix}l{layer}_{g}"))
                .expect("generator produces valid arities");
            created.push(out);
        }
        remaining -= at_this;
        pool.push(created);
    }
    debug_assert_eq!(remaining, 0);
}

/// Build a standalone seeded random-logic cloud with `inputs` primary
/// inputs and exactly `gates` gates.
///
/// # Panics
///
/// Panics if `inputs == 0` or `gates == 0`.
pub fn random_logic_cloud(inputs: usize, gates: usize, seed: u64) -> Circuit {
    assert!(inputs > 0 && gates > 0);
    let mut c = Circuit::new(format!("cloud{gates}"));
    let pis: Vec<NetId> = (0..inputs).map(|i| c.add_input(format!("x{i}"))).collect();
    let mut rng = SplitMix64::new(seed);
    cloud_into(&mut c, &mut rng, "", &pis, gates);
    mark_sinks_as_outputs(&mut c);
    c
}

fn mark_sinks_as_outputs(c: &mut Circuit) {
    let sinks: Vec<NetId> = c
        .net_ids()
        .filter(|&n| {
            c.net(n).loads().is_empty() && matches!(c.net(n).driver(), Some(NetDriver::Gate(_)))
        })
        .collect();
    for n in sinks {
        c.mark_output(n);
    }
}

/// Compose a synthetic fabric of exactly `target_gates` gates: an array
/// multiplier (~35% of the budget), a carry-select adder (~15%), and a
/// seeded random-logic cloud stitched to their result buses (the rest).
/// Deterministic in `seed`; every sink net becomes a primary output.
///
/// This is the generator behind the `synth10k`/`synth100k`/`synth1m`
/// scaling classes in [`crate::suite`].
///
/// # Panics
///
/// Panics if `target_gates < 1000`.
pub fn synthetic_fabric(name: &str, target_gates: usize, seed: u64) -> Circuit {
    assert!(
        target_gates >= 1000,
        "synthetic_fabric targets production scale; use the dedicated builders below 1k gates"
    );
    let mut c = Circuit::new(name);
    let mut rng = SplitMix64::new(seed);

    // Array multiplier: ~10·n² gates, aim at 35% of the budget.
    let mult_bits = ((0.035 * target_gates as f64).sqrt() as usize).max(4);
    let ma: Vec<NetId> = (0..mult_bits)
        .map(|i| c.add_input(format!("ma{i}")))
        .collect();
    let mb: Vec<NetId> = (0..mult_bits)
        .map(|i| c.add_input(format!("mb{i}")))
        .collect();
    let products = array_multiplier_into(&mut c, "m_", &ma, &mb);

    // Carry-select adder: ~21 gates/bit + block overhead, aim at 15%.
    let add_bits = ((0.15 * target_gates as f64 / 21.0) as usize).max(8);
    let aa: Vec<NetId> = (0..add_bits)
        .map(|i| c.add_input(format!("aa{i}")))
        .collect();
    let ab: Vec<NetId> = (0..add_bits)
        .map(|i| c.add_input(format!("ab{i}")))
        .collect();
    let cin = c.add_input("acin");
    let (sums, cout) = carry_select_into(&mut c, "a_", 8, &aa, &ab, cin);

    // Random-logic cloud consumes the exact remaining budget, stitched to
    // the datapath results plus a few dedicated inputs.
    let used = c.gate_count();
    assert!(
        used < target_gates,
        "datapath overshot the budget: {used} of {target_gates}"
    );
    let mut cloud_seeds: Vec<NetId> = (0..32.min(target_gates / 100).max(1))
        .map(|i| c.add_input(format!("cx{i}")))
        .collect();
    cloud_seeds.extend(products.iter().copied());
    cloud_seeds.extend(sums.iter().copied());
    cloud_seeds.push(cout);
    cloud_into(&mut c, &mut rng, "cl_", &cloud_seeds, target_gates - used);

    mark_sinks_as_outputs(&mut c);
    debug_assert_eq!(c.gate_count(), target_gates);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn inverter_chain_inverts_odd_lengths() {
        for n in 1..6 {
            let c = inverter_chain(n);
            let out = c.evaluate(&[("in", true)].into_iter().collect()).unwrap();
            let y = out.values().next().copied().unwrap();
            assert_eq!(y, n % 2 == 0, "chain of {n}");
        }
    }

    fn add_via_circuit(c: &Circuit, bits: usize, a: u64, b: u64, cin: bool) -> u64 {
        let mut vals: HashMap<String, bool> = HashMap::new();
        for i in 0..bits {
            vals.insert(format!("a{i}"), a >> i & 1 == 1);
            vals.insert(format!("b{i}"), b >> i & 1 == 1);
        }
        vals.insert("cin".into(), cin);
        let borrowed: HashMap<&str, bool> = vals.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        let out = c.evaluate(&borrowed).unwrap();
        let mut result = 0u64;
        for i in 0..bits {
            // sum nets are named fa{i}_s_x by the builder
            if out[&format!("fa{i}_s_x")] {
                result |= 1 << i;
            }
        }
        if out[&format!("fa{}_co", bits - 1)] {
            result |= 1 << bits;
        }
        result
    }

    #[test]
    fn four_bit_adder_is_correct_exhaustively() {
        let bits = 4;
        let c = ripple_carry_adder(bits);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let expect = a + b + cin as u64;
                    assert_eq!(
                        add_via_circuit(&c, bits, a, b, cin),
                        expect,
                        "{a}+{b}+{cin}"
                    );
                }
            }
        }
    }

    #[test]
    fn sixteen_bit_adder_spot_checks() {
        let bits = 16;
        let c = ripple_carry_adder(bits);
        for (a, b, cin) in [
            (0u64, 0u64, false),
            (0xFFFF, 1, false),
            (0x8000, 0x8000, false),
            (12345, 54321, true),
            (0xFFFF, 0xFFFF, true),
        ] {
            let expect = a + b + cin as u64;
            assert_eq!(add_via_circuit(&c, bits, a, b, cin), expect);
        }
    }

    #[test]
    fn adder16_gate_count_is_nine_per_bit() {
        let c = ripple_carry_adder(16);
        assert_eq!(c.gate_count(), 16 * 9);
    }

    #[test]
    fn builders_validate() {
        ripple_carry_adder(8).validate().unwrap();
        inverter_chain(7).validate().unwrap();
        carry_select_adder(9, 4).validate().unwrap();
        array_multiplier(5).validate().unwrap();
        random_logic_cloud(16, 300, 7).validate().unwrap();
    }

    /// Evaluate a circuit whose `primary_outputs()` form a binary word,
    /// LSB first, under inputs named by `(prefix, index)` pairs.
    fn eval_word(c: &Circuit, inputs: &[(&str, u64, usize)], extra: &[(&str, bool)]) -> u64 {
        let mut vals: HashMap<String, bool> = HashMap::new();
        for &(prefix, value, bits) in inputs {
            for i in 0..bits {
                vals.insert(format!("{prefix}{i}"), value >> i & 1 == 1);
            }
        }
        for &(name, v) in extra {
            vals.insert(name.into(), v);
        }
        let borrowed: HashMap<&str, bool> = vals.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        let out = c.evaluate(&borrowed).unwrap();
        let mut word = 0u64;
        for (i, &net) in c.primary_outputs().iter().enumerate() {
            if out[c.net(net).name()] {
                word |= 1 << i;
            }
        }
        word
    }

    #[test]
    fn carry_select_adder_is_correct_exhaustively() {
        let bits = 4;
        let c = carry_select_adder(bits, 2);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let got = eval_word(&c, &[("a", a, bits), ("b", b, bits)], &[("cin", cin)]);
                    assert_eq!(got, a + b + cin as u64, "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn carry_select_adder_wide_spot_checks() {
        let bits = 24;
        let c = carry_select_adder(bits, 8);
        for (a, b, cin) in [
            (0u64, 0u64, false),
            (0xFF_FFFF, 1, false),
            (0x80_0000, 0x80_0000, true),
            (0xABCDEF, 0x123456, true),
            (0xFF_FFFF, 0xFF_FFFF, true),
        ] {
            let got = eval_word(&c, &[("a", a, bits), ("b", b, bits)], &[("cin", cin)]);
            assert_eq!(got, a + b + cin as u64, "{a}+{b}+{cin}");
        }
    }

    #[test]
    fn array_multiplier_is_correct_exhaustively() {
        let bits = 4;
        let c = array_multiplier(bits);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let got = eval_word(&c, &[("a", a, bits), ("b", b, bits)], &[]);
                assert_eq!(got, a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn array_multiplier_wide_spot_checks() {
        let bits = 8;
        let c = array_multiplier(bits);
        for (a, b) in [(0u64, 0u64), (255, 255), (181, 97), (128, 2), (199, 83)] {
            let got = eval_word(&c, &[("a", a, bits), ("b", b, bits)], &[]);
            assert_eq!(got, a * b, "{a}*{b}");
        }
    }

    #[test]
    fn random_logic_cloud_is_deterministic_and_exact() {
        let a = random_logic_cloud(24, 1000, 42);
        let b = random_logic_cloud(24, 1000, 42);
        assert_eq!(a.gate_count(), 1000);
        assert_eq!(b.gate_count(), 1000);
        for (ga, gb) in a.gate_ids().zip(b.gate_ids()) {
            assert_eq!(a.gate(ga).kind(), b.gate(gb).kind());
            assert_eq!(a.gate(ga).inputs(), b.gate(gb).inputs());
        }
        let c = random_logic_cloud(24, 1000, 43);
        let differs = a
            .gate_ids()
            .zip(c.gate_ids())
            .any(|(ga, gc)| a.gate(ga).inputs() != c.gate(gc).inputs());
        assert!(differs, "different seeds should give different clouds");
    }

    #[test]
    fn synthetic_fabric_hits_target_exactly() {
        let c = synthetic_fabric("fab", 2000, 1);
        assert_eq!(c.gate_count(), 2000);
        c.validate().unwrap();
        // Deep datapath + wide cloud: levels must be non-trivial.
        assert!(c.depth().unwrap() > 20);
    }
}
