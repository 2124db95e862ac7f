//! The six DGS rules, operating on the lexed token stream.
//!
//! Each rule is a pure function from tokens to findings; scoping (which
//! file gets which rule) lives in [`crate::config`], and waiver
//! application happens afterwards in [`crate::check_source`].

use crate::config::Config;
use crate::diagnostics::Finding;
use crate::lexer::{in_regions, matching_close, Lexed, Tok, TokKind};

/// Runs every applicable rule for `rel_path` over `lexed`, before waivers.
/// `only` restricts to a subset of rule names (CLI `--rule`, golden tests).
pub fn run_all(
    rel_path: &str,
    lexed: &Lexed,
    cfg: &Config,
    only: Option<&[String]>,
) -> Vec<Finding> {
    let enabled = |rule: &str| {
        cfg.applies(rule, rel_path) && only.map_or(true, |names| names.iter().any(|n| n == rule))
    };
    let toks = &lexed.toks;
    let test_regions = crate::lexer::cfg_test_regions(toks);
    let mut findings = Vec::new();
    if enabled("nan-ordering") {
        nan_ordering(rel_path, toks, &mut findings);
    }
    if enabled("determinism") {
        determinism(rel_path, toks, &mut findings);
    }
    if enabled("no-panic-io") {
        no_panic_io(rel_path, toks, &test_regions, &mut findings);
    }
    if enabled("no-truncating-cast") {
        no_truncating_cast(rel_path, toks, &test_regions, &mut findings);
    }
    if enabled("unsafe-budget") {
        unsafe_budget(rel_path, toks, lexed, cfg, &mut findings);
    }
    if enabled("paired-symbols") {
        paired_symbols(rel_path, toks, &mut findings);
    }
    findings
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn is_punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// nan-ordering: `partial_cmp` on the top-R% selection paths reorders NaN
/// magnitudes arbitrarily (PAPER.md Alg. 1/3) — `total_cmp` is required.
/// Flags calls and path uses, not the `fn partial_cmp` a `PartialOrd`
/// impl must define (which should delegate to `Ord`/`total_cmp`).
fn nan_ordering(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "partial_cmp") {
            continue;
        }
        if i > 0 && is_ident(&toks[i - 1], "fn") {
            continue;
        }
        out.push(Finding::new(
            "nan-ordering",
            path,
            t.line,
            t.col,
            "`partial_cmp` gives NaN magnitudes an arbitrary order in top-R% selection; \
             use `total_cmp` (see merge::mag_idx_order)"
                .to_string(),
        ));
    }
}

/// determinism: the MDT server/update-log/sparsify/codec cores must be
/// bit-exact and replayable (Eq. 5 equivalence proofs): no wall clocks,
/// no randomized-hasher iteration order, no entropy.
fn determinism(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let msg = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iterates in randomized order; use `BTreeMap`/`BTreeSet` or index-keyed \
                 vectors in deterministic cores",
                t.text
            )),
            "SystemTime" => {
                Some("wall-clock time in a deterministic core breaks replayability".to_string())
            }
            "Instant" => {
                // Only `Instant::now` observes the clock; an `Instant`
                // passed in as data is fine.
                let is_now = toks.get(i + 1).is_some_and(|a| is_punct(a, ":"))
                    && toks.get(i + 2).is_some_and(|a| is_punct(a, ":"))
                    && toks.get(i + 3).is_some_and(|a| is_ident(a, "now"));
                is_now.then(|| {
                    "`Instant::now` in a deterministic core breaks replayability".to_string()
                })
            }
            "thread_rng" | "from_entropy" => {
                Some(format!("`{}` injects entropy into a deterministic core", t.text))
            }
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(Finding::new("determinism", path, t.line, t.col, msg));
        }
    }
}

/// no-panic-io: the wire paths promise "error, never panic" (PR 2) — a
/// malformed frame or poisoned lock must surface as `NetError`, not tear
/// down the thread mid-connection. Test modules are exempt.
fn no_panic_io(path: &str, toks: &[Tok], test_regions: &[(u32, u32)], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(test_regions, t.line) {
            continue;
        }
        let finding = match t.text.as_str() {
            // Method calls only: `.unwrap()` / `.expect(`. Plain idents
            // named `unwrap` (e.g. a local fn) are not the std panic.
            "unwrap" | "expect" => {
                i > 0
                    && is_punct(&toks[i - 1], ".")
                    && toks.get(i + 1).is_some_and(|a| is_punct(a, "("))
            }
            "panic" | "unimplemented" | "todo" | "unreachable" => {
                toks.get(i + 1).is_some_and(|a| is_punct(a, "!"))
            }
            _ => false,
        };
        if finding {
            out.push(Finding::new(
                "no-panic-io",
                path,
                t.line,
                t.col,
                format!(
                    "`{}` on a wire path can tear down a live connection; propagate \
                     `NetError` instead (poisoned lock -> explicit error)",
                    t.text
                ),
            ));
        }
    }
}

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// no-truncating-cast: `as` silently wraps oversized lengths/ids on the
/// wire; `try_from` + the codec's error type is required so a >4 GiB
/// payload or >u16 worker id errors instead of aliasing another value.
fn no_truncating_cast(path: &str, toks: &[Tok], test_regions: &[(u32, u32)], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "as") || in_regions(test_regions, t.line) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if next.kind == TokKind::Ident && INT_TYPES.contains(&next.text.as_str()) {
            out.push(Finding::new(
                "no-truncating-cast",
                path,
                t.line,
                t.col,
                format!(
                    "`as {}` silently wraps out-of-range values on the wire; use \
                     `{}::try_from` and return the codec error",
                    next.text, next.text
                ),
            ));
        }
    }
}

/// unsafe-budget: zero `unsafe` outside `crates/tensor`; inside the
/// budget every `unsafe` needs a `// SAFETY:` comment within the three
/// preceding lines. Applies to test code too — UB in a test is still UB.
fn unsafe_budget(path: &str, toks: &[Tok], lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    for t in toks {
        if !is_ident(t, "unsafe") {
            continue;
        }
        if !cfg.unsafe_is_allowed(path) {
            out.push(Finding::new(
                "unsafe-budget",
                path,
                t.line,
                t.col,
                "`unsafe` outside the budget (`crates/tensor`); move the unsafe kernel \
                 there or find a safe formulation"
                    .to_string(),
            ));
            continue;
        }
        let has_safety = lexed.comments.iter().any(|c| {
            c.line + 3 >= t.line && c.line <= t.line && c.text.contains("SAFETY:")
        });
        if !has_safety {
            out.push(Finding::new(
                "unsafe-budget",
                path,
                t.line,
                t.col,
                "`unsafe` without a `// SAFETY:` comment in the 3 preceding lines".to_string(),
            ));
        }
    }
}

/// paired-symbols: the codec's symmetry is the invariant
/// `encode(msg).len() == msg.wire_bytes()` rests on — every `encode_*`
/// must have a `decode_*` counterpart (stems normalized: `_payload`,
/// `_frame` and the in-place `_into` suffixes stripped), every `put_*` a
/// `take_*`, and every
/// variant of a `*Msg`/`*Payload` enum must appear in a `wire_bytes`
/// body so new variants cannot ship without a size law.
fn paired_symbols(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    // Collect fn names with positions.
    let mut fns: Vec<(String, u32, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if is_ident(t, "fn") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    fns.push((name.text.clone(), name.line, name.col));
                }
            }
        }
    }
    let has_fn = |want: &str| fns.iter().any(|(n, _, _)| n == want);
    let stem = |name: &str, prefix: &str| -> String {
        let s = name.trim_start_matches(prefix).trim_end_matches("_into");
        s.trim_end_matches("_payload").trim_end_matches("_frame").to_string()
    };
    for (name, line, col) in &fns {
        if let Some(_rest) = name.strip_prefix("encode_") {
            let s = stem(name, "encode_");
            let ok = fns.iter().any(|(n, _, _)| n.starts_with("decode_") && stem(n, "decode_") == s);
            if !ok {
                out.push(Finding::new(
                    "paired-symbols",
                    path,
                    *line,
                    *col,
                    format!("`{name}` has no matching `decode_{s}*` in this file"),
                ));
            }
        }
        if let Some(rest) = name.strip_prefix("put_") {
            if !has_fn(&format!("take_{rest}")) {
                out.push(Finding::new(
                    "paired-symbols",
                    path,
                    *line,
                    *col,
                    format!("`{name}` has no matching `take_{rest}` in this file"),
                ));
            }
        }
    }
    // Variant coverage: idents inside every `fn wire_bytes` body.
    let mut wire_idents: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "fn") && toks.get(i + 1).is_some_and(|t| is_ident(t, "wire_bytes")) {
            let mut j = i + 2;
            while j < toks.len() && !is_punct(&toks[j], "{") {
                j += 1;
            }
            let close = matching_close(toks, j, "{", "}");
            for t in toks.iter().take(close).skip(j) {
                if t.kind == TokKind::Ident {
                    wire_idents.push(t.text.clone());
                }
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    // Enum variants of *Msg / *Payload enums.
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "enum") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        let enum_name = name_tok.text.clone();
        if !(enum_name.ends_with("Msg") || enum_name.ends_with("Payload")) {
            i += 2;
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !is_punct(&toks[j], "{") {
            j += 1;
        }
        let close = matching_close(toks, j, "{", "}");
        let mut brace_depth = 0i32;
        let mut paren_depth = 0i32;
        let mut prev_significant: Option<String> = None;
        for k in j..close.min(toks.len()) {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => brace_depth += 1,
                    "}" => brace_depth -= 1,
                    "(" => paren_depth += 1,
                    ")" => paren_depth -= 1,
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident
                && brace_depth == 1
                && paren_depth == 0
                && matches!(prev_significant.as_deref(), Some("{") | Some(",") | Some("]"))
            {
                let variant = t.text.clone();
                if !wire_idents.iter().any(|w| w == &variant) {
                    out.push(Finding::new(
                        "paired-symbols",
                        path,
                        t.line,
                        t.col,
                        format!(
                            "enum `{enum_name}` variant `{variant}` is not covered by any \
                             `wire_bytes()` arm in this file"
                        ),
                    ));
                }
            }
            prev_significant = Some(t.text.clone());
        }
        i = close + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str, rule: &str) -> Vec<Finding> {
        let cfg = Config::default_for_workspace();
        let lexed = lex(src);
        run_all(path, &lexed, &cfg, Some(&[rule.to_string()]))
    }

    #[test]
    fn nan_ordering_flags_calls_not_defs() {
        let src = "impl PartialOrd for E { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }\n\
                   fn pick(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let f = run("crates/sparsify/src/topk.rs", src, "nan-ordering");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("total_cmp"));
    }

    #[test]
    fn determinism_flags_hash_collections_and_clocks() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = Instant::now(); }\n\
                   fn g(deadline: Instant) {}\n\
                   fn h() { let _ = SystemTime::now(); }\n";
        let f = run("crates/core/src/update_log.rs", src, "determinism");
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn no_panic_io_exempts_tests_and_or_variants() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n\
                   fn g(x: Option<u8>) { x.unwrap_or(0); }\n\
                   fn h() { panic!(\"boom\"); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n";
        let f = run("crates/net/src/tcp.rs", src, "no-panic-io");
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 3]);
    }

    #[test]
    fn truncating_cast_flags_int_targets_only() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\n\
                   fn g(x: u32) -> f32 { x as f32 }\n\
                   use std::io::Error as IoError;\n";
        let f = run("crates/net/src/codec.rs", src, "no-truncating-cast");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_outside_budget_flags() {
        let f = run("crates/net/src/tcp.rs", "fn f() { unsafe { core::hint::unreachable_unchecked() } }", "unsafe-budget");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("outside the budget"));
    }

    #[test]
    fn unsafe_in_budget_needs_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert_eq!(run("crates/tensor/src/simd.rs", bad, "unsafe-budget").len(), 1);
        assert_eq!(run("crates/tensor/src/simd.rs", good, "unsafe-budget").len(), 0);
    }

    #[test]
    fn paired_symbols_matches_codec_shape() {
        let good = "pub fn encode_up_payload(u: &U) -> Vec<u8> { vec![] }\n\
                    pub fn encode_up_frame_into(b: &mut Vec<u8>, u: &U) {}\n\
                    pub fn decode_up(p: &[u8]) -> U { U }\n\
                    fn put_sparse(b: &mut Vec<u8>) {}\n\
                    fn take_sparse(r: &mut R) {}\n";
        assert_eq!(run("crates/net/src/codec.rs", good, "paired-symbols").len(), 0);
        let bad = "pub fn encode_down_frame(d: &D) -> Vec<u8> { vec![] }\n\
                   fn put_ternary(b: &mut Vec<u8>) {}\n";
        let f = run("crates/net/src/codec.rs", bad, "paired-symbols");
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("decode_down"));
        assert!(f[1].message.contains("take_ternary"));
    }

    #[test]
    fn paired_symbols_variant_coverage() {
        let src = "pub enum DownMsg {\n\
                       DenseModel(Arc<Vec<f32>>),\n\
                       SparseDiff(SparseUpdate),\n\
                       #[allow(dead_code)]\n\
                       NewThing { a: u8, b: u8 },\n\
                   }\n\
                   impl DownMsg {\n\
                       pub fn wire_bytes(&self) -> usize {\n\
                           match self {\n\
                               DownMsg::DenseModel(m) => 20 + 4 * m.len(),\n\
                               DownMsg::SparseDiff(s) => 20 + s.wire_bytes(),\n\
                               _ => 0,\n\
                           }\n\
                       }\n\
                   }\n";
        let f = run("crates/core/src/protocol.rs", src, "paired-symbols");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("NewThing"));
        assert_eq!(f[0].line, 5);
    }
}
