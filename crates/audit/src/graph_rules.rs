//! The call-graph analysis tier: lock-order, no-blocking-under-lock,
//! panic-reach, and wire-bytes-conservation (DESIGN.md §8).
//!
//! A single guard-scope walk per fn drives the first three rules: it
//! tracks which declared lock classes have a live guard at every call
//! site (brace-scoped, `drop()`-aware, statement temporaries die at
//! `;`), classifies acquisitions against the manifest, and consults the
//! transitive facts from [`crate::callgraph`] for anything it cannot
//! see directly. Wire-bytes conservation is a separate structural
//! cross-check of `wire_bytes()` match arms against encoder emit
//! sequences.

use std::collections::BTreeMap;

use crate::callgraph::{self, Graph};
use crate::config::Config;
use crate::diagnostics::Finding;
use crate::lexer::{self, Tok, TokKind};
use crate::manifest::Manifest;
use crate::parser::{Call, ParsedFile};

/// One observed lock acquisition while another class's guard is live.
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: u32,
    col: u32,
    /// Line the held guard was acquired on (for the message).
    held_line: u32,
}

fn enabled(only: Option<&[String]>, rule: &str) -> bool {
    only.map_or(true, |names| names.iter().any(|n| n == rule))
}

/// The audit tool does not analyze itself: its sources mention every
/// blocking/panicking name as *data*, which would poison the graph.
fn in_graph_scope(path: &str) -> bool {
    !crate::config::path_has_prefix(path, "crates/audit")
}

/// Runs all four graph rules over the parsed workspace.
pub fn run_all(
    files: &[ParsedFile],
    graph: &Graph<'_>,
    manifest: &Manifest,
    cfg: &Config,
    only: Option<&[String]>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for (fi, pf) in files.iter().enumerate() {
        if !in_graph_scope(&pf.path) {
            continue;
        }
        walk_file(fi, pf, graph, manifest, cfg, only, &mut findings, &mut edges);
        if enabled(only, "panic-reach") && cfg.applies("panic-reach", &pf.path) {
            panic_sites(pf, manifest, &mut findings);
        }
    }
    if enabled(only, "lock-order") {
        lock_order_findings(&edges, manifest, &mut findings);
    }
    if enabled(only, "wire-bytes-conservation") {
        wire_bytes::run(files, cfg, &mut findings);
    }
    findings
}

// ---------------------------------------------------------------------------
// guard-scope walker

/// A live lock guard in some brace scope.
struct LiveGuard {
    class: String,
    /// Binding name if `let`-bound (killable by `drop(name)`); `None`
    /// for statement temporaries and pattern-bound guards.
    name: Option<String>,
    /// Statement temporary: dies at the next `;` in its scope.
    temp: bool,
    line: u32,
}

/// Walks one file's fns, emitting no-blocking-under-lock and the
/// call-site half of panic-reach, and collecting lock-order edges.
#[allow(clippy::too_many_arguments)]
fn walk_file(
    fi: usize,
    pf: &ParsedFile,
    graph: &Graph<'_>,
    manifest: &Manifest,
    cfg: &Config,
    only: Option<&[String]>,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let blocking_on = enabled(only, "no-blocking-under-lock")
        && cfg.applies("no-blocking-under-lock", &pf.path);
    let lock_on = enabled(only, "lock-order") && cfg.applies("lock-order", &pf.path);
    let reach_on = enabled(only, "panic-reach")
        && cfg.applies("panic-reach", &pf.path)
        && manifest.is_entry_file(&pf.path);
    let poller = manifest.is_poller_file(&pf.path);
    if !blocking_on && !lock_on && !reach_on {
        return;
    }
    let toks = &pf.lexed.toks;
    for (ni, f) in pf.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let call_at: BTreeMap<usize, &Call> = pf.calls[ni].iter().map(|c| (c.tok, c)).collect();
        let mut scopes: Vec<Vec<LiveGuard>> = vec![Vec::new()];
        let mut pending_let: Option<String> = None;
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => scopes.push(Vec::new()),
                    "}" => {
                        scopes.pop();
                        if scopes.is_empty() {
                            scopes.push(Vec::new()); // defensive: unbalanced
                        }
                    }
                    ";" => {
                        if let Some(top) = scopes.last_mut() {
                            top.retain(|g| !g.temp);
                        }
                        pending_let = None;
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            if t.kind == TokKind::Ident && t.text == "let" {
                // `let [mut] name = …` — a guard acquired in this
                // statement binds to `name`. Destructuring patterns
                // leave the guard anonymous (conservatively live to
                // scope end, not killable by drop()).
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text == "mut") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 1).is_some_and(|t| is_punct(t, "="))
                    && !toks.get(j + 2).is_some_and(|t| is_punct(t, "=") || is_punct(t, ">"))
                {
                    pending_let = Some(toks[j].text.clone());
                }
                i += 1;
                continue;
            }
            let Some(&c) = call_at.get(&i).as_ref() else {
                i += 1;
                continue;
            };
            // `drop(name)` kills the most recent guard bound to `name`.
            if c.name == "drop"
                && !c.is_method
                && toks.get(c.args_open + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(c.args_open + 2).is_some_and(|t| is_punct(t, ")"))
            {
                let victim = &toks[c.args_open + 1].text;
                'kill: for scope in scopes.iter_mut().rev() {
                    for gi in (0..scope.len()).rev() {
                        if scope[gi].name.as_deref() == Some(victim) {
                            scope.remove(gi);
                            break 'kill;
                        }
                    }
                }
                i += 1;
                continue;
            }
            // Acquisition?
            if let Some(class) = manifest.classify(&c.name, c.is_method, &c.chain, &pf.path) {
                if lock_on {
                    for g in scopes.iter().flatten() {
                        edges.push(LockEdge {
                            from: g.class.clone(),
                            to: class.name.clone(),
                            path: pf.path.clone(),
                            line: c.line,
                            col: c.col,
                            held_line: g.line,
                        });
                    }
                }
                let name = pending_let.take();
                let temp = name.is_none();
                scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .push(LiveGuard { class: class.name.clone(), name, temp, line: c.line });
                i += 1;
                continue;
            }
            // Undeclared mutex: a `.lock()` that matches no manifest
            // class in a file the lock rules cover.
            if lock_on && c.name == "lock" && c.is_method {
                findings.push(Finding::new(
                    "lock-order",
                    &pf.path,
                    c.line,
                    c.col,
                    format!(
                        "mutex acquisition `{}.lock()` matches no declared class in \
                         audit-lock-order.toml — declare it (with a rank) before using it",
                        c.chain.first().map(String::as_str).unwrap_or("?")
                    ),
                ));
                i += 1;
                continue;
            }
            let narrow = narrow_type(c, &scopes, manifest, &pf.path);
            // A call through a guard of a generic-inner mutex (`let h =
            // self.lock()…; h.meth()`) can dispatch to any impl of the
            // guarded type — but never back to the wrapper impl the
            // caller lives in: the guard derefs *through* the mutex.
            let exclude = if narrow.is_none()
                && c.chain.len() == 1
                && scopes.iter().flatten().any(|g| {
                    g.name.as_deref() == Some(c.chain[0].as_str())
                        && manifest.class(&g.class).is_some_and(|cl| cl.inner.is_none())
                }) {
                f.impl_type.as_deref()
            } else {
                None
            };
            let held: Vec<&LiveGuard> = scopes
                .iter()
                .flatten()
                .filter(|g| !manifest.class(&g.class).is_some_and(|c| c.allow_blocking))
                .collect();
            // no-blocking-under-lock: direct, then transitive.
            if blocking_on && !held.is_empty() && !callgraph::is_condvar_wait(&c.name) {
                let g = held.last().expect("nonempty");
                if callgraph::is_blocking_name(&c.name) {
                    findings.push(Finding::new(
                        "no-blocking-under-lock",
                        &pf.path,
                        c.line,
                        c.col,
                        format!(
                            "blocking call `{}` while a `{}` guard (acquired line {}) is live",
                            c.name, g.class, g.line
                        ),
                    ));
                } else if let Some((tf, tn)) = graph
                    .resolve(c, (fi, ni), narrow.as_deref(), exclude)
                    .into_iter()
                    .find(|&id| graph.fact(id).may_block)
                {
                    let fact = graph.fact((tf, tn));
                    findings.push(Finding::new(
                        "no-blocking-under-lock",
                        &pf.path,
                        c.line,
                        c.col,
                        format!(
                            "`{}` may block ({}) while a `{}` guard (acquired line {}) is live",
                            c.name,
                            fact.block_witness.as_deref().unwrap_or("transitively"),
                            g.class,
                            g.line
                        ),
                    ));
                }
            }
            // Poller scope: parking calls are banned outright.
            if blocking_on && poller && !manifest.poller_allows(&c.name, &c.chain) {
                if callgraph::HARD_BLOCKING_CALLS.contains(&c.name.as_str()) {
                    findings.push(Finding::new(
                        "no-blocking-under-lock",
                        &pf.path,
                        c.line,
                        c.col,
                        format!("parking call `{}` on the event-loop poller thread", c.name),
                    ));
                } else if let Some(id) = graph
                    .resolve(c, (fi, ni), narrow.as_deref(), exclude)
                    .into_iter()
                    .find(|&id| graph.fact(id).may_hard_block)
                {
                    let fact = graph.fact(id);
                    findings.push(Finding::new(
                        "no-blocking-under-lock",
                        &pf.path,
                        c.line,
                        c.col,
                        format!(
                            "`{}` may park the event-loop poller thread ({})",
                            c.name,
                            fact.hard_witness.as_deref().unwrap_or("transitively")
                        ),
                    ));
                }
            }
            // Transitive lock-order edges through the callee.
            if lock_on && scopes.iter().flatten().next().is_some() {
                let mut seen: Vec<&str> = Vec::new();
                for id in graph.resolve(c, (fi, ni), narrow.as_deref(), exclude) {
                    for a in &graph.fact(id).acquires {
                        if seen.contains(&a.as_str()) {
                            continue;
                        }
                        seen.push(a);
                        for g in scopes.iter().flatten() {
                            edges.push(LockEdge {
                                from: g.class.clone(),
                                to: a.clone(),
                                path: pf.path.clone(),
                                line: c.line,
                                col: c.col,
                                held_line: g.line,
                            });
                        }
                    }
                }
            }
            // panic-reach: a call leaving the entry-file set for a fn
            // that may panic.
            if reach_on && !c.under_barrier {
                if let Some(id) = graph
                    .resolve(c, (fi, ni), narrow.as_deref(), exclude)
                    .into_iter()
                    .find(|&(tf, tn)| {
                        !manifest.is_entry_file(&graph.files[tf].path)
                            && graph.fact((tf, tn)).may_panic
                    })
                {
                    let fact = graph.fact(id);
                    findings.push(Finding::new(
                        "panic-reach",
                        &pf.path,
                        c.line,
                        c.col,
                        format!(
                            "wire-path call `{}` can reach a panic ({}) — contain it or return an error",
                            c.name,
                            fact.panic_witness.as_deref().unwrap_or("transitively")
                        ),
                    ));
                }
            }
            i += 1;
        }
    }
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Guard-typed narrowing: if a method call's receiver is a lock guard
/// whose class declares `inner`, resolution is restricted to
/// `impl inner` fns. Two shapes: a call directly on a named live guard
/// (`guard.meth()`), or a call chained onto the acquisition itself
/// (`self.lock_shard(i).meth()`, `self.front.lock().unwrap().meth()` —
/// `unwrap`/`expect` hops are tolerated).
fn narrow_type(
    c: &Call,
    scopes: &[Vec<LiveGuard>],
    manifest: &Manifest,
    path: &str,
) -> Option<String> {
    if !c.is_method || c.chain.is_empty() {
        return None;
    }
    if c.chain.len() == 1 {
        for g in scopes.iter().flatten().rev() {
            if g.name.as_deref() == Some(c.chain[0].as_str()) {
                return manifest.class(&g.class).and_then(|cl| cl.inner.clone());
            }
        }
    }
    for (j, hop) in c.chain.iter().enumerate() {
        // Only unwrap/expect hops may sit between the call and the
        // acquisition for the narrowing to be sound.
        if c.chain[..j].iter().any(|h| !matches!(h.as_str(), "unwrap" | "expect")) {
            break;
        }
        if let Some(cl) = manifest.classify(hop, true, &c.chain[j + 1..], path) {
            return cl.inner.clone();
        }
        if let Some(cl) = manifest.classify(hop, false, &[], path) {
            return cl.inner.clone();
        }
    }
    None
}

// ---------------------------------------------------------------------------
// lock-order: edges → cycles (unwaivable) + rank violations

fn lock_order_findings(edges: &[LockEdge], manifest: &Manifest, findings: &mut Vec<Finding>) {
    // Dedup edges per (from, to, site) — loops revisit the same site.
    let mut seen: Vec<(&str, &str, &str, u32)> = Vec::new();
    let mut uniq: Vec<&LockEdge> = Vec::new();
    for e in edges {
        let key = (e.from.as_str(), e.to.as_str(), e.path.as_str(), e.line);
        if !seen.contains(&key) {
            seen.push(key);
            uniq.push(e);
        }
    }
    // Class-level adjacency for cycle detection.
    let mut adj: Vec<(String, String)> = Vec::new();
    for e in &uniq {
        let pair = (e.from.clone(), e.to.clone());
        if !adj.contains(&pair) {
            adj.push(pair);
        }
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from.to_string()];
        let mut visited: Vec<String> = Vec::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if visited.contains(&n) {
                continue;
            }
            visited.push(n.clone());
            for (a, b) in &adj {
                if *a == n {
                    stack.push(b.clone());
                }
            }
        }
        false
    };
    for e in &uniq {
        // A cycle: the acquired class reaches back to the held class
        // (self-edges included). Unwaivable by construction.
        if e.to == e.from || reaches(&e.to, &e.from) {
            findings.push(Finding::unwaivable(
                "lock-order",
                &e.path,
                e.line,
                e.col,
                if e.to == e.from {
                    format!(
                        "lock-order cycle: re-acquiring `{}` while a `{}` guard (line {}) is \
                         already live — deadlock on the same thread",
                        e.to, e.from, e.held_line
                    )
                } else {
                    format!(
                        "lock-order cycle: acquiring `{}` while `{}` is held (line {}), but \
                         `{}` also reaches `{}` — two threads can deadlock",
                        e.to, e.from, e.held_line, e.to, e.from
                    )
                },
            ));
            continue;
        }
        match (manifest.rank_of(&e.from), manifest.rank_of(&e.to)) {
            (Some(rf), Some(rt)) if rf < rt => {}
            (Some(_), Some(_)) => findings.push(Finding::new(
                "lock-order",
                &e.path,
                e.line,
                e.col,
                format!(
                    "acquiring `{}` while `{}` is held (line {}) violates the declared order \
                     in audit-lock-order.toml ({} must be taken before {})",
                    e.to, e.from, e.held_line, e.to, e.from
                ),
            )),
            // classify() only returns declared classes; ranks exist.
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// panic-reach: in-file sites (subscripts, asserts) on entry files

fn panic_sites(pf: &ParsedFile, manifest: &Manifest, findings: &mut Vec<Finding>) {
    if !manifest.is_entry_file(&pf.path) {
        return;
    }
    for (ni, f) in pf.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for s in &pf.subscripts[ni] {
            if !s.under_barrier && !lexer::in_regions(&pf.test_regions, s.line) {
                findings.push(Finding::new(
                    "panic-reach",
                    &pf.path,
                    s.line,
                    s.col,
                    "indexing can panic on the wire path — use get()/split-checked access \
                     and return a protocol error"
                        .to_string(),
                ));
            }
        }
        for p in &pf.panics[ni] {
            if p.under_barrier || !p.what.ends_with('!') {
                continue; // unwrap/expect are no-panic-io's findings
            }
            if matches!(p.what.as_str(), "assert!" | "assert_eq!" | "assert_ne!") {
                findings.push(Finding::new(
                    "panic-reach",
                    &pf.path,
                    p.line,
                    p.col,
                    format!(
                        "`{}` on the wire path panics on malformed input — return a \
                         protocol error instead",
                        p.what
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// wire-bytes-conservation

mod wire_bytes {
    use super::*;
    use crate::parser::parse_int;

    /// One accounting atom: a per-element cost, a delegated sub-count,
    /// or a fixed byte count.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum Atom {
        /// `N * xs.len()` on the wire side; `put_f32s` on the encoder side.
        Elem(u64),
        /// `x.wire_bytes()` ↔ `put_sparse`/`put_ternary`.
        Delegate,
    }

    /// Parsed match arm: variant name plus its expression token range.
    struct Arm {
        enum_name: String,
        variant: String,
        expr: (usize, usize),
        line: u32,
    }

    /// Encoder emitters and their fixed cost; `None` cost = delegate.
    const EMITTERS: &[(&str, Option<u64>)] = &[
        ("put_f32s", None), // special-cased: Elem(4)
        ("put_sparse", None),
        ("put_ternary", None),
        ("put_u8", Some(1)),
        ("put_u16", Some(2)),
        ("put_u32", Some(4)),
        ("put_u64", Some(8)),
        ("put_f32", Some(4)),
        ("put_f64", Some(8)),
    ];

    /// Raw-buffer calls inside an encoder arm that bypass the costed
    /// emitters — each is unaccounted wire traffic.
    const RAW_EMITTERS: &[&str] = &["extend_from_slice", "extend", "push", "append"];

    pub fn run(files: &[ParsedFile], cfg: &Config, findings: &mut Vec<Finding>) {
        let scoped: Vec<&ParsedFile> = files
            .iter()
            .filter(|pf| cfg.applies("wire-bytes-conservation", &pf.path))
            .collect();
        // Global const table (folded per file; cross-file by name).
        let mut consts: Vec<(&str, u64)> = Vec::new();
        for pf in files {
            for (n, v) in &pf.consts {
                consts.push((n.as_str(), *v));
            }
        }
        // wire_bytes() impls with match bodies, keyed by self type.
        struct WireSide<'a> {
            pf: &'a ParsedFile,
            enum_name: String,
            fn_line: u32,
            arms: Vec<Arm>,
        }
        let mut wires: Vec<WireSide<'_>> = Vec::new();
        for pf in &scoped {
            for f in &pf.fns {
                if f.in_test || f.name != "wire_bytes" {
                    continue;
                }
                let Some((open, close)) = f.body else { continue };
                let arms = match_arms(&pf.lexed.toks, open, close);
                if arms.is_empty() {
                    continue; // single-expression accounting: out of scope
                }
                let enum_name = f
                    .impl_type
                    .clone()
                    .or_else(|| arms.first().map(|a| a.enum_name.clone()));
                if let Some(enum_name) = enum_name {
                    wires.push(WireSide { pf, enum_name, fn_line: f.line, arms });
                }
            }
        }
        for w in &wires {
            // Find encoder arms for this enum anywhere in scope.
            let mut enc: Option<(&ParsedFile, &str, u32, Vec<Arm>)> = None;
            for pf in &scoped {
                for f in &pf.fns {
                    // `encode_*` builds a message's bytes; `write_*` is the
                    // in-place form appending them to a caller's buffer.
                    if f.in_test || !(f.name.starts_with("encode_") || f.name.starts_with("write_"))
                    {
                        continue;
                    }
                    let Some((open, close)) = f.body else { continue };
                    let arms: Vec<Arm> = match_arms(&pf.lexed.toks, open, close)
                        .into_iter()
                        .filter(|a| a.enum_name == w.enum_name)
                        .collect();
                    if !arms.is_empty() {
                        enc = Some((pf, f.name.as_str(), f.line, arms));
                    }
                }
            }
            let Some((epf, ename, _eline, earms)) = enc else {
                findings.push(Finding::new(
                    "wire-bytes-conservation",
                    &w.pf.path,
                    w.fn_line,
                    1,
                    format!(
                        "`{}::wire_bytes` has no encoder match to cross-check against \
                         (no `encode_*`/`write_*` fn matches on `{}`)",
                        w.enum_name, w.enum_name
                    ),
                ));
                continue;
            };
            // Variant-by-variant comparison.
            for wa in &w.arms {
                let Some(ea) = earms.iter().find(|a| a.variant == wa.variant) else {
                    findings.push(Finding::new(
                        "wire-bytes-conservation",
                        &w.pf.path,
                        wa.line,
                        1,
                        format!(
                            "`{}::{}` is costed in wire_bytes but `{}` has no arm \
                             encoding it",
                            w.enum_name, wa.variant, ename
                        ),
                    ));
                    continue;
                };
                let (mut watoms, wconst) =
                    wire_arm_atoms(&w.pf.lexed.toks, wa, &consts, &w.pf.path, findings);
                let (mut eatoms, econst) =
                    encoder_arm_atoms(&epf.lexed.toks, ea, &epf.path, findings);
                watoms.sort();
                eatoms.sort();
                if watoms != eatoms || wconst != econst {
                    findings.push(Finding::new(
                        "wire-bytes-conservation",
                        &w.pf.path,
                        wa.line,
                        1,
                        format!(
                            "`{}::{}`: wire_bytes accounts {} but `{}` emits {}",
                            w.enum_name,
                            wa.variant,
                            describe(&watoms, wconst),
                            ename,
                            describe(&eatoms, econst)
                        ),
                    ));
                }
            }
            for ea in &earms {
                if !w.arms.iter().any(|a| a.variant == ea.variant) {
                    findings.push(Finding::new(
                        "wire-bytes-conservation",
                        &epf.path,
                        ea.line,
                        1,
                        format!(
                            "`{}` encodes `{}::{}` but wire_bytes has no arm costing it",
                            ename, w.enum_name, ea.variant
                        ),
                    ));
                }
            }
            // Enum completeness: every declared variant must be costed.
            for pf in &scoped {
                for e in &pf.enums {
                    if e.name != w.enum_name {
                        continue;
                    }
                    for (v, vline) in &e.variants {
                        if !w.arms.iter().any(|a| &a.variant == v) {
                            findings.push(Finding::new(
                                "wire-bytes-conservation",
                                &pf.path,
                                *vline,
                                1,
                                format!(
                                    "variant `{}::{v}` is not costed by wire_bytes — \
                                     its traffic would be invisible to the byte counters",
                                    w.enum_name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    fn describe(atoms: &[Atom], fixed: u64) -> String {
        let elems: Vec<String> = atoms
            .iter()
            .map(|a| match a {
                Atom::Elem(n) => format!("{n}B/elem"),
                Atom::Delegate => "a delegated sub-encoding".to_string(),
            })
            .collect();
        if elems.is_empty() {
            format!("{fixed} fixed bytes")
        } else if fixed == 0 {
            elems.join(" + ")
        } else {
            format!("{} + {fixed} fixed bytes", elems.join(" + "))
        }
    }

    /// Extracts `Enum::Variant => expr` arms from every `match` in a
    /// body range. Wildcard and non-path arms are skipped.
    fn match_arms(toks: &[Tok], open: usize, close: usize) -> Vec<Arm> {
        let mut out = Vec::new();
        let mut i = open + 1;
        while i < close {
            if !(toks[i].kind == TokKind::Ident && toks[i].text == "match") {
                i += 1;
                continue;
            }
            // Scrutinee runs to the first `{` at depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < close {
                match (toks[j].kind, toks[j].text.as_str()) {
                    (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
                    (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
                    (TokKind::Punct, "{") if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j >= close {
                break;
            }
            let mopen = j;
            let mclose = lexer::matching_close(toks, mopen, "{", "}");
            let mut k = mopen + 1;
            while k < mclose {
                // Pattern until `=>` at depth 0.
                let pstart = k;
                let mut depth = 0i32;
                let mut arrow = None;
                while k < mclose {
                    let t = &toks[k];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "=" if depth == 0
                                && toks.get(k + 1).is_some_and(|n| {
                                    n.kind == TokKind::Punct && n.text == ">"
                                }) =>
                            {
                                arrow = Some(k);
                                break;
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                let Some(arrow) = arrow else { break };
                // Expression: a block, or tokens to the `,` at depth 0.
                let estart = arrow + 2;
                let eend;
                if toks.get(estart).is_some_and(|t| is_punct(t, "{")) {
                    eend = lexer::matching_close(toks, estart, "{", "}") + 1;
                    k = eend;
                    if toks.get(k).is_some_and(|t| is_punct(t, ",")) {
                        k += 1;
                    }
                } else {
                    let mut depth = 0i32;
                    let mut m = estart;
                    while m < mclose {
                        let t = &toks[m];
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                "," if depth == 0 => break,
                                _ => {}
                            }
                        }
                        m += 1;
                    }
                    eend = m;
                    k = m + 1;
                }
                // Pattern path: first `Ident :: Ident` sequence.
                let mut path = None;
                for p in pstart..arrow.saturating_sub(1) {
                    if toks[p].kind == TokKind::Ident
                        && toks.get(p + 1).is_some_and(|t| is_punct(t, ":"))
                        && toks.get(p + 2).is_some_and(|t| is_punct(t, ":"))
                        && toks.get(p + 3).is_some_and(|t| t.kind == TokKind::Ident)
                    {
                        path = Some((toks[p].text.clone(), toks[p + 3].text.clone()));
                        break;
                    }
                }
                if let Some((enum_name, variant)) = path {
                    out.push(Arm {
                        enum_name,
                        variant,
                        expr: (estart, eend),
                        line: toks[pstart].line,
                    });
                }
            }
            i = mclose + 1;
        }
        out
    }

    /// Atoms of a wire_bytes arm: top-level `+` terms classified as
    /// per-element costs, delegates, overhead consts (`*_BYTES`,
    /// dropped — the frame layer charges them), or fixed-field consts.
    fn wire_arm_atoms(
        toks: &[Tok],
        arm: &Arm,
        consts: &[(&str, u64)],
        path: &str,
        findings: &mut Vec<Finding>,
    ) -> (Vec<Atom>, u64) {
        let mut atoms = Vec::new();
        let mut fixed = 0u64;
        let (start, end) = arm.expr;
        let mut term_start = start;
        let mut depth = 0i32;
        let mut i = start;
        while i <= end {
            let at_end = i == end;
            let t = if at_end { None } else { Some(&toks[i]) };
            let split = at_end
                || t.is_some_and(|t| t.kind == TokKind::Punct && t.text == "+" && depth == 0);
            if let Some(t) = t {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        _ => {}
                    }
                }
            }
            if split {
                let term = &toks[term_start..i];
                classify_wire_term(term, arm, consts, path, &mut atoms, &mut fixed, findings);
                term_start = i + 1;
            }
            if at_end {
                break;
            }
            i += 1;
        }
        (atoms, fixed)
    }

    fn classify_wire_term(
        term: &[Tok],
        arm: &Arm,
        consts: &[(&str, u64)],
        path: &str,
        atoms: &mut Vec<Atom>,
        fixed: &mut u64,
        findings: &mut Vec<Finding>,
    ) {
        if term.is_empty() {
            return;
        }
        let line = term[0].line;
        if term.iter().any(|t| t.kind == TokKind::Ident && t.text == "wire_bytes") {
            atoms.push(Atom::Delegate);
            return;
        }
        if term.iter().any(|t| t.kind == TokKind::Ident && t.text == "len") {
            let n = term
                .iter()
                .find(|t| t.kind == TokKind::Num)
                .and_then(|t| parse_int(&t.text))
                .unwrap_or(1);
            atoms.push(Atom::Elem(n));
            return;
        }
        if term.len() == 1 && term[0].kind == TokKind::Num {
            findings.push(Finding::new(
                "wire-bytes-conservation",
                path,
                line,
                term[0].col,
                format!(
                    "bare byte count `{}` in `{}::{}` wire accounting — name it as a const \
                     so the encoder cross-check can see it",
                    term[0].text, arm.enum_name, arm.variant
                ),
            ));
            *fixed += parse_int(&term[0].text).unwrap_or(0);
            return;
        }
        if term.len() == 1 && term[0].kind == TokKind::Ident {
            let name = term[0].text.as_str();
            match consts.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => {
                    if name.ends_with("_BYTES") {
                        // Declared frame/prefix overhead: charged by the
                        // frame layer, not the payload encoder.
                    } else {
                        *fixed += *v;
                    }
                }
                None => findings.push(Finding::new(
                    "wire-bytes-conservation",
                    path,
                    line,
                    term[0].col,
                    format!(
                        "const `{name}` in `{}::{}` wire accounting does not resolve to an \
                         integer — the conservation check cannot verify it",
                        arm.enum_name, arm.variant
                    ),
                )),
            }
            return;
        }
        findings.push(Finding::new(
            "wire-bytes-conservation",
            path,
            line,
            term[0].col,
            format!(
                "unrecognized term in `{}::{}` wire accounting — use `<const>`, \
                 `N * xs.len()`, or `x.wire_bytes()` so bytes stay auditable",
                arm.enum_name, arm.variant
            ),
        ));
    }

    /// Atoms of an encoder arm: the costed `put_*` emitters in call
    /// order; raw buffer writes are unaccounted traffic.
    fn encoder_arm_atoms(
        toks: &[Tok],
        arm: &Arm,
        path: &str,
        findings: &mut Vec<Finding>,
    ) -> (Vec<Atom>, u64) {
        let mut atoms = Vec::new();
        let mut fixed = 0u64;
        let (start, end) = arm.expr;
        for i in start..end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
            {
                continue;
            }
            let name = t.text.as_str();
            if name == "put_f32s" {
                atoms.push(Atom::Elem(4));
            } else if let Some((_, cost)) = EMITTERS.iter().find(|(n, _)| *n == name) {
                match cost {
                    Some(c) => fixed += c,
                    None => atoms.push(Atom::Delegate),
                }
            } else if RAW_EMITTERS.contains(&name) {
                findings.push(Finding::new(
                    "wire-bytes-conservation",
                    path,
                    t.line,
                    t.col,
                    format!(
                        "raw buffer write `{name}` in the `{}::{}` encoder arm bypasses the \
                         costed emitters — wire_bytes cannot account for it",
                        arm.enum_name, arm.variant
                    ),
                ));
            }
        }
        (atoms, fixed)
    }
}
