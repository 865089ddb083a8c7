//! In-tree source-policy linter.
//!
//! Walks every `.rs` file of the workspace (no external deps, a simple
//! line/token scanner over comment- and string-stripped source) and
//! enforces the repo's source policy:
//!
//! 1. **No `unsafe`** — the token `unsafe` appears in no file.
//! 2. **Forbid headers** — every crate root (`crates/*/src/lib.rs` and
//!    the facade `src/lib.rs`) carries `#![forbid(unsafe_code)]`.
//! 3. **No `unwrap` in library code** — `.unwrap()` is banned outside
//!    `#[cfg(test)]` regions and `src/bin/` CLIs; failures must travel
//!    as typed errors (`StaError` and friends).
//! 4. **`expect` needs a license** — `.expect(` in library code must be
//!    listed in `crates/bench/static_audit_allow.txt` (invariant-backed
//!    proofs like lock poisoning or builder arity).
//! 5. **No `Ordering::Relaxed`** — library code uses no relaxed
//!    atomics.
//! 6. **Float `==` confinement** — bitwise float equality is a
//!    deliberate tool of the bit-stability modules; everywhere else it
//!    is a bug magnet and must be allowlisted.
//!
//! Exit status 0 = clean, 1 = violations (printed one per line as
//! `rule path:line: source`), 2 = usage/IO error. CI runs this next to
//! `cargo clippy -- -D warnings`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One policy violation: which rule, where, and the offending line.
struct Violation {
    rule: &'static str,
    path: String,
    line: usize,
    text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule,
            self.path,
            self.line,
            self.text.trim()
        )
    }
}

/// One allowlist entry: `rule  path-suffix  line-substring` (whitespace
/// separated; the substring may be `*` for "any line in that file").
struct Allow {
    rule: String,
    path_suffix: String,
    needle: String,
}

fn load_allowlist(path: &Path) -> Vec<Allow> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(suffix)) = (parts.next(), parts.next()) else {
            continue;
        };
        out.push(Allow {
            rule: rule.to_string(),
            path_suffix: suffix.to_string(),
            needle: parts.next().unwrap_or("*").trim().to_string(),
        });
    }
    out
}

fn allowed(allows: &[Allow], rule: &str, path: &str, line_text: &str) -> bool {
    allows.iter().any(|a| {
        a.rule == rule
            && path.ends_with(&a.path_suffix)
            && (a.needle == "*" || line_text.contains(&a.needle))
    })
}

/// Strip comments and string/char literals from Rust source, preserving
/// the line structure, so token rules never fire inside a doc example or
/// a message string. Replaced regions become spaces.
fn code_mask(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out[i] = b'\n';
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() {
            if b[i + 1] == b'/' {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if b[i + 1] == b'*' {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        out[i] = b'\n';
                    }
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
        }
        // Raw strings: r"…", r#"…"#, br##"…"## etc.
        if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    // Copy the prefix so `r` stays a code token boundary.
                    out[i..k + 1].copy_from_slice(&b[i..k + 1]);
                    i = k + 1;
                    'raw: while i < b.len() {
                        if b[i] == b'\n' {
                            out[i] = b'\n';
                        }
                        if b[i] == b'"' {
                            let mut h = 0usize;
                            while i + 1 + h < b.len() && b[i + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Plain strings (and byte strings — the `b` was copied above
        // only for raw forms; a lone `b"` reaches here at `"`.)
        if c == b'"' {
            i += 1;
            while i < b.len() {
                if b[i] == b'\n' {
                    out[i] = b'\n';
                }
                if b[i] == b'\\' {
                    // Preserve line-continuation newlines (`"… \` + EOL).
                    if i + 1 < b.len() && b[i + 1] == b'\n' {
                        out[i + 1] = b'\n';
                    }
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            continue;
        }
        // Char literals vs lifetimes.
        if c == b'\'' {
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                // '\n', '\u{..}' …
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
                continue;
            }
            if i + 2 < b.len() && b[i + 2] == b'\'' {
                // 'x'
                i += 3;
                continue;
            }
            // Lifetime: keep scanning normally past the quote.
            out[i] = c;
            i += 1;
            continue;
        }
        out[i] = c;
        i += 1;
    }
    String::from_utf8(out).unwrap_or_default()
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Whole-word occurrences of `word` in `line`.
fn has_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let w = word.as_bytes();
    let mut start = 0usize;
    while let Some(p) = line[start..].find(word) {
        let at = start + p;
        let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let after = at + w.len();
        let after_ok = after >= b.len() || !(b[after].is_ascii_alphanumeric() || b[after] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Mark the lines belonging to `#[cfg(test)]`-gated items (brace-tracked
/// from the attribute to the item's closing brace).
fn test_region_lines(mask: &str) -> Vec<bool> {
    let lines: Vec<&str> = mask.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut l = 0usize;
    while l < lines.len() {
        if lines[l].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the gated item, then track depth.
            let mut depth = 0i64;
            let mut opened = false;
            let mut m = l;
            while m < lines.len() {
                in_test[m] = true;
                for ch in lines[m].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                m += 1;
            }
            l = m + 1;
        } else {
            l += 1;
        }
    }
    in_test
}

/// A token is "float-like" if it is a float literal (`1.5`, `0.`,
/// `1e-9`) or a named float constant (`INFINITY`, `NEG_INFINITY`,
/// `NAN`).
fn float_like(token: &str) -> bool {
    let t = token.trim();
    if t.ends_with("INFINITY") || t.ends_with("NAN") {
        return true;
    }
    let mut digits = false;
    let mut dot = false;
    let mut exp = false;
    for (i, c) in t.char_indices() {
        match c {
            '0'..='9' | '_' => digits = true,
            '.' => dot = true,
            // The operand token may be cut at a sign (`1.5e-3` → `1.5e`);
            // a digits-then-exponent prefix is already float-shaped.
            'e' | 'E' if digits => exp = true,
            '+' | '-' if exp => {}
            'f' if t[i..].starts_with("f64") || t[i..].starts_with("f32") => return digits,
            _ => return false,
        }
    }
    digits && (dot || exp)
}

/// Does this masked line compare something against a float with `==` or
/// `!=`? (Bitwise comparisons go through `.to_bits()` and never look
/// float-like.)
fn has_float_eq(line: &str) -> bool {
    let b = line.as_bytes();
    let mut i = 0usize;
    while i + 1 < b.len() {
        let op = (b[i] == b'=' || b[i] == b'!') && b[i + 1] == b'=';
        // Exclude `<=`, `>=`, `=>`, `===`-ish runs and `!=` vs `!==`.
        let not_cmp_assign = i == 0 || !matches!(b[i - 1], b'<' | b'>' | b'=' | b'+' | b'-');
        let not_fat_arrow = i + 2 >= b.len() || b[i + 2] != b'>';
        if op && not_cmp_assign && not_fat_arrow && (i + 2 >= b.len() || b[i + 2] != b'=') {
            // Right operand.
            let rhs: String = line[i + 2..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':'))
                .collect();
            // Left operand.
            let lhs: String = line[..i]
                .trim_end()
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':'))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if float_like(&rhs) || float_like(&lhs) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Library code is subject to the unwrap/expect/ordering/float rules:
/// `src/**` of the facade and of every crate — but not `src/bin/` CLIs.
fn is_lib_code(rel: &str) -> bool {
    let under_src = rel.starts_with("src/") || rel.contains("/src/");
    under_src && !rel.contains("/bin/")
}

fn scan_repo(root: &Path) -> Result<Vec<Violation>, String> {
    let allows = load_allowlist(&root.join("crates/bench/static_audit_allow.txt"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "benches", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no .rs files under {}", root.display()));
    }

    let mut violations = Vec::new();
    let mut lib_roots_seen = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mask = code_mask(&src);
        let in_test = test_region_lines(&mask);
        let lib = is_lib_code(&rel);
        let is_crate_root =
            rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
        if is_crate_root {
            lib_roots_seen.push(rel.clone());
            if !mask.lines().any(|l| l.contains("#![forbid(unsafe_code)]")) {
                violations.push(Violation {
                    rule: "forbid-header",
                    path: rel.clone(),
                    line: 1,
                    text: "crate root lacks #![forbid(unsafe_code)]".into(),
                });
            }
        }

        let src_lines: Vec<&str> = src.lines().collect();
        for (idx, line) in mask.lines().enumerate() {
            let shown = src_lines.get(idx).copied().unwrap_or(line).to_string();
            let lineno = idx + 1;
            // 1. No `unsafe` (everywhere, tests included).
            if has_word(line, "unsafe") {
                violations.push(Violation {
                    rule: "unsafe",
                    path: rel.clone(),
                    line: lineno,
                    text: shown.clone(),
                });
            }
            if !lib || in_test[idx] {
                continue;
            }
            // 3. No `.unwrap()` in library code.
            if line.contains(".unwrap()") {
                violations.push(Violation {
                    rule: "unwrap-in-lib",
                    path: rel.clone(),
                    line: lineno,
                    text: shown.clone(),
                });
            }
            // 4. `.expect(` needs an allowlist license.
            if line.contains(".expect(") && !allowed(&allows, "expect-in-lib", &rel, &shown) {
                violations.push(Violation {
                    rule: "expect-in-lib",
                    path: rel.clone(),
                    line: lineno,
                    text: shown.clone(),
                });
            }
            // 5. No relaxed atomics.
            if line.contains("Ordering::Relaxed") {
                violations.push(Violation {
                    rule: "relaxed-ordering",
                    path: rel.clone(),
                    line: lineno,
                    text: shown.clone(),
                });
            }
            // 6. Float equality only in the bit-stability modules.
            if has_float_eq(line) && !allowed(&allows, "float-eq", &rel, &shown) {
                violations.push(Violation {
                    rule: "float-eq",
                    path: rel.clone(),
                    line: lineno,
                    text: shown,
                });
            }
        }
    }
    if lib_roots_seen.len() < 2 {
        return Err(format!(
            "only {} crate roots found — wrong directory? (root: {})",
            lib_roots_seen.len(),
            root.display()
        ));
    }
    Ok(violations)
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = match root.canonicalize() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("static_audit: cannot resolve repo root: {e}");
            return ExitCode::from(2);
        }
    };
    match scan_repo(&root) {
        Err(e) => {
            eprintln!("static_audit: {e}");
            ExitCode::from(2)
        }
        Ok(v) if v.is_empty() => {
            println!("static_audit: clean");
            ExitCode::SUCCESS
        }
        Ok(v) => {
            for violation in &v {
                println!("{violation}");
            }
            println!("static_audit: {} violation(s)", v.len());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_comments_strings_and_doc_examples() {
        let src = r#"
/// ```
/// x.unwrap();
/// ```
fn f() {
    let s = "contains unsafe and .unwrap()";
    let c = '"';
    // trailing .expect( note
    real();
}
"#;
        let mask = code_mask(src);
        assert!(!mask.contains("unwrap"), "{mask}");
        assert!(!mask.contains("unsafe"), "{mask}");
        assert!(!mask.contains("expect"), "{mask}");
        assert!(mask.contains("real()"));
        assert_eq!(mask.lines().count(), src.lines().count());
    }

    #[test]
    fn word_matching_does_not_cross_identifiers() {
        assert!(has_word("unsafe fn q()", "unsafe"));
        assert!(!has_word("#![deny(unsafe_code)]", "unsafe"));
        assert!(!has_word("my_unsafe_thing", "unsafe"));
    }

    #[test]
    fn float_eq_detection() {
        assert!(has_float_eq("if tau_ps == 0.0 {"));
        assert!(has_float_eq("if t_in == f64::NEG_INFINITY {"));
        assert!(has_float_eq("x != 1.5e-3"));
        assert!(!has_float_eq("a.to_bits() != b.to_bits()"));
        assert!(!has_float_eq("if n == 0 {"));
        assert!(!has_float_eq("if n <= 0.0 {"));
        assert!(!has_float_eq("Some(x) => y,"));
    }

    #[test]
    fn cfg_test_regions_are_brace_tracked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let t = test_region_lines(src);
        assert_eq!(t, [false, true, true, true, true, false]);
    }

    #[test]
    fn the_repo_itself_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = scan_repo(&root.canonicalize().expect("repo root resolves")).expect("scan runs");
        assert!(
            v.is_empty(),
            "policy violations:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
