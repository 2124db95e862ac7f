//! Golden end-to-end tests for dgs-audit.
//!
//! Each fixture under `tests/fixtures/` is audited *as if* it lived at a
//! real in-scope workspace path, and the findings are pinned to exact
//! `(rule, line)` pairs — so a rule that drifts (stops tripping, trips on
//! the wrong line, or leaks out of scope) fails loudly here. The fixtures
//! are `include_str!`ed, never compiled, so they are free to contain the
//! very patterns the rules forbid.

use dgs_audit::config::Config;
use dgs_audit::diagnostics::Finding;
use dgs_audit::{check_files, check_source};

fn audit(pretend_path: &str, src: &str) -> Vec<Finding> {
    check_source(pretend_path, src, &Config::default_for_workspace(), None)
}

/// Audits a multi-file pretend workspace restricted to `only` rules —
/// the call-graph rules are cross-file, so their fixtures need this.
fn audit_files(files: &[(&str, &str)], only: &[&str]) -> Vec<Finding> {
    let files: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    let only: Vec<String> = only.iter().map(|s| s.to_string()).collect();
    check_files(&files, &Config::default_for_workspace(), Some(&only))
}

fn rule_lines(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule.as_str(), f.line)).collect()
}

#[test]
fn nan_ordering_trips_on_calls_not_partial_ord_impls() {
    let f = audit("crates/sparsify/src/golden.rs", include_str!("fixtures/nan_ordering.rs"));
    assert_eq!(rule_lines(&f), vec![("nan-ordering", 5)], "{f:?}");
    assert!(f[0].message.contains("total_cmp"));
}

#[test]
fn determinism_trips_on_hash_collections_and_clock_reads_only() {
    let f = audit("crates/core/src/server.rs", include_str!("fixtures/determinism.rs"));
    assert_eq!(
        rule_lines(&f),
        vec![("determinism", 3), ("determinism", 9), ("determinism", 13)],
        "{f:?}"
    );
    // An `Instant` stored as data (lines 4 and 7) must not trip.
    assert!(f[2].message.contains("Instant::now"));
}

#[test]
fn no_panic_io_exempts_test_modules_and_unwrap_or() {
    let f = audit("crates/net/src/transport.rs", include_str!("fixtures/no_panic_io.rs"));
    assert_eq!(rule_lines(&f), vec![("no-panic-io", 3), ("no-panic-io", 8)], "{f:?}");
}

#[test]
fn truncating_cast_trips_on_int_targets_outside_tests() {
    let f = audit("crates/net/src/codec.rs", include_str!("fixtures/no_truncating_cast.rs"));
    assert_eq!(rule_lines(&f), vec![("no-truncating-cast", 3)], "{f:?}");
    assert!(f[0].message.contains("try_from"));
}

#[test]
fn unsafe_outside_budget_trips_even_with_safety_comment() {
    let f = audit("crates/core/src/server.rs", include_str!("fixtures/unsafe_outside.rs"));
    assert_eq!(rule_lines(&f), vec![("unsafe-budget", 4)], "{f:?}");
    assert!(f[0].message.contains("outside the budget"));
}

#[test]
fn unsafe_in_tensor_requires_nearby_safety_comment() {
    let f = audit("crates/tensor/src/simd.rs", include_str!("fixtures/unsafe_tensor.rs"));
    assert_eq!(rule_lines(&f), vec![("unsafe-budget", 8)], "{f:?}");
    assert!(f[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_intrinsics_in_crc_simd_budget_need_safety_comments() {
    // Inside the budgeted PCLMULQDQ file: the annotated `unsafe fn` and
    // its annotated body (lines 7/9) pass; the bare intrinsic load with
    // no `// SAFETY:` in reach (line 13) is the pinned finding.
    let f =
        audit("crates/net/src/crc_simd.rs", include_str!("fixtures/unsafe_simd_intrinsic.rs"));
    assert_eq!(rule_lines(&f), vec![("unsafe-budget", 13)], "{f:?}");
    assert!(f[0].message.contains("SAFETY"), "{}", f[0].message);
    // The same intrinsics in any other net file are outside the budget:
    // every `unsafe` is a hard finding, annotated or not.
    let f = audit("crates/net/src/conn.rs", include_str!("fixtures/unsafe_simd_intrinsic.rs"));
    assert_eq!(
        rule_lines(&f),
        vec![("unsafe-budget", 7), ("unsafe-budget", 9), ("unsafe-budget", 13)],
        "{f:?}"
    );
    assert!(f.iter().all(|x| x.message.contains("outside the budget")), "{f:?}");
}

#[test]
fn paired_symbols_flags_unpaired_fns_and_uncovered_variants() {
    let f = audit("crates/net/src/codec.rs", include_str!("fixtures/paired_symbols.rs"));
    // The pretend path is a wire entry file, so the graph tier also sees
    // the fixture's indexing (panic-reach) and its encoder-less
    // wire_bytes (wire-bytes-conservation).
    assert_eq!(
        rule_lines(&f),
        vec![
            ("paired-symbols", 2),
            ("panic-reach", 11),
            ("paired-symbols", 14),
            ("paired-symbols", 20),
            ("wire-bytes-conservation", 24),
        ],
        "{f:?}"
    );
    assert!(f[0].message.contains("decode_ping"), "{}", f[0].message);
    assert!(f[2].message.contains("take_scale"), "{}", f[2].message);
    assert!(f[3].message.contains("Stray"), "{}", f[3].message);
}

#[test]
fn lexer_ignores_strings_comments_and_lifetimes() {
    let f = audit("crates/net/src/transport.rs", include_str!("fixtures/tricky_lexing.rs"));
    // Decoys in strings, raw strings, byte strings, nested block comments,
    // char literals, and a lifetime named 'unwrap must all stay silent.
    assert_eq!(rule_lines(&f), vec![("no-panic-io", 12)], "{f:?}");
}

#[test]
fn waivers_suppress_cover_both_forms_and_rot_is_flagged() {
    let f = audit("crates/net/src/transport.rs", include_str!("fixtures/waiver_cases.rs"));
    assert_eq!(
        rule_lines(&f),
        vec![("waiver", 11), ("no-panic-io", 14), ("waiver", 17), ("waiver", 18)],
        "{f:?}"
    );
    assert!(f[0].message.contains("unused"), "{}", f[0].message);
    assert!(f[2].message.contains("unknown rule"), "{}", f[2].message);
    assert!(f[3].message.contains("justification"), "{}", f[3].message);
}

#[test]
fn clean_fixture_passes_under_every_scope_path() {
    let src = include_str!("fixtures/clean.rs");
    for path in [
        "crates/net/src/codec.rs",
        "crates/core/src/server.rs",
        "crates/sparsify/src/lib.rs",
        "crates/psim/src/des.rs",
        "crates/tensor/src/simd.rs",
    ] {
        let f = audit(path, src);
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

#[test]
fn compute_tier_scopes_cover_gemm_and_pool() {
    let src = include_str!("fixtures/compute_tier.rs");
    // In the blocked-GEMM file: hash-iteration trips determinism, but the
    // float comparator stays quiet (gemm is not a nan-ordering scope).
    let f = audit("crates/tensor/src/gemm.rs", src);
    assert_eq!(rule_lines(&f), vec![("determinism", 4), ("determinism", 6)], "{f:?}");
    // In the pooling file both scopes apply: the partial_cmp argmax is the
    // exact bug the max-pool tie-break contract forbids.
    let f = audit("crates/tensor/src/pool.rs", src);
    assert_eq!(
        rule_lines(&f),
        vec![("determinism", 4), ("determinism", 6), ("nan-ordering", 14)],
        "{f:?}"
    );
    assert!(f[2].message.contains("total_cmp"), "{}", f[2].message);
    // The wrapper file stays out of every compute-tier scope.
    let f = audit("crates/tensor/src/matmul.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn rules_stay_inside_their_scopes() {
    // The nan_ordering fixture trips in sparsify but crates/bench is out
    // of every scope except unsafe-budget (which it does not trip).
    let f = audit("crates/bench/src/golden.rs", include_str!("fixtures/nan_ordering.rs"));
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------------------
// Call-graph tier (DESIGN.md §8): lock-order, no-blocking-under-lock,
// panic-reach, wire-bytes-conservation.

#[test]
fn lock_order_cycles_are_unwaivable() {
    let f = audit_files(
        &[("crates/core/src/shard.rs", include_str!("fixtures/lock_order_cycle.rs"))],
        &["lock-order"],
    );
    assert_eq!(
        rule_lines(&f),
        vec![("lock-order", 5), ("lock-order", 10), ("lock-order", 15)],
        "{f:?}"
    );
    assert!(f.iter().all(|x| !x.waivable), "{f:?}");
    assert!(f[0].message.contains("deadlock on the same thread"), "{}", f[0].message);
    assert!(f[2].message.contains("two threads can deadlock"), "{}", f[2].message);
}

#[test]
fn lock_order_rank_violations_are_waivable_and_decoys_stay_quiet() {
    let f = audit_files(
        &[("crates/core/src/shard.rs", include_str!("fixtures/lock_order_violation.rs"))],
        &["lock-order"],
    );
    // Line 5: shard then front. Line 17: the `let s = 1u8;` shadow does
    // NOT release the shard guard, so the front acquisition still trips.
    // The drop() decoy (line 11) must not.
    assert_eq!(rule_lines(&f), vec![("lock-order", 5), ("lock-order", 17)], "{f:?}");
    assert!(f.iter().all(|x| x.waivable), "{f:?}");
    assert!(f[0].message.contains("violates the declared order"), "{}", f[0].message);
}

#[test]
fn lock_order_clean_nesting_passes() {
    let f = audit_files(
        &[("crates/core/src/shard.rs", include_str!("fixtures/lock_order_clean.rs"))],
        &["lock-order"],
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn blocking_under_lock_direct_transitive_and_shadow_but_not_drop() {
    let f = audit_files(
        &[("crates/core/src/shard.rs", include_str!("fixtures/blocking_under_lock.rs"))],
        &["no-blocking-under-lock"],
    );
    assert_eq!(
        rule_lines(&f),
        vec![
            ("no-blocking-under-lock", 5),
            ("no-blocking-under-lock", 10),
            ("no-blocking-under-lock", 21),
        ],
        "{f:?}"
    );
    assert!(f[0].message.contains("blocking call `sleep`"), "{}", f[0].message);
    assert!(f[1].message.contains("`linger` may block"), "{}", f[1].message);
}

#[test]
fn blocking_exempt_class_allows_upstream_io() {
    let f = audit_files(
        &[("crates/net/src/edge.rs", include_str!("fixtures/blocking_allowed_edge.rs"))],
        &["no-blocking-under-lock"],
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn poller_file_bans_parking_even_without_a_guard() {
    let f = audit_files(
        &[("crates/net/src/event_loop.rs", include_str!("fixtures/poller_parking.rs"))],
        &["no-blocking-under-lock"],
    );
    // `rx.recv()` parks; `poller.wait()` is the allow-listed poll(2) wait.
    assert_eq!(rule_lines(&f), vec![("no-blocking-under-lock", 3)], "{f:?}");
    assert!(f[0].message.contains("parking call `recv`"), "{}", f[0].message);
}

#[test]
fn panic_reach_crosses_files_and_respects_barriers_and_tests() {
    let f = audit_files(
        &[
            ("crates/net/src/conn.rs", include_str!("fixtures/panic_reach_entry.rs")),
            ("crates/net/src/wire_util.rs", include_str!("fixtures/panic_reach_helper.rs")),
        ],
        &["panic-reach"],
    );
    // Line 3: cross-file call into an expect(). Line 6: subscript in the
    // entry file. Line 9: assert_eq! in the entry file. Line 16: dyn-widened
    // call where one impl panics. The catch_unwind closure (line 12) and
    // the #[cfg(test)] subscript (line 21) must stay quiet.
    let entry = "crates/net/src/conn.rs";
    assert!(f.iter().all(|x| x.path == entry), "{f:?}");
    assert_eq!(
        rule_lines(&f),
        vec![
            ("panic-reach", 3),
            ("panic-reach", 6),
            ("panic-reach", 9),
            ("panic-reach", 16),
        ],
        "{f:?}"
    );
    assert!(f[0].message.contains("decode_header"), "{}", f[0].message);
    assert!(f[1].message.contains("indexing"), "{}", f[1].message);
}

#[test]
fn panic_reach_total_parsers_pass() {
    let f = audit_files(
        &[("crates/net/src/conn.rs", include_str!("fixtures/panic_reach_clean.rs"))],
        &["panic-reach"],
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_reach_ignores_non_entry_files() {
    // The same panicking helper audited alone is out of the entry set.
    let f = audit_files(
        &[("crates/net/src/wire_util.rs", include_str!("fixtures/panic_reach_helper.rs"))],
        &["panic-reach"],
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wire_bytes_flags_only_the_disagreeing_arm() {
    let f = audit_files(
        &[("crates/net/src/codec.rs", include_str!("fixtures/wire_bytes_mismatch.rs"))],
        &["wire-bytes-conservation"],
    );
    // Ping/Data/Nested arms reconcile; Status costs 1 tag byte but the
    // encoder emits tag + payload = 2.
    assert_eq!(rule_lines(&f), vec![("wire-bytes-conservation", 15)], "{f:?}");
    assert!(f[0].message.contains("accounts 1 fixed bytes"), "{}", f[0].message);
    assert!(f[0].message.contains("emits 2 fixed bytes"), "{}", f[0].message);
}

#[test]
fn wire_bytes_flags_raw_writes_bare_counts_and_uncosted_variants() {
    let f = audit_files(
        &[("crates/net/src/codec.rs", include_str!("fixtures/wire_bytes_gaps.rs"))],
        &["wire-bytes-conservation"],
    );
    // Line 5: `Silent` never costed. Line 10: bare `2` instead of a named
    // const. Line 11: Blob's per-element cost vs an uncosted raw write.
    // Line 21: the raw `extend_from_slice` itself.
    assert_eq!(
        rule_lines(&f),
        vec![
            ("wire-bytes-conservation", 5),
            ("wire-bytes-conservation", 10),
            ("wire-bytes-conservation", 11),
            ("wire-bytes-conservation", 21),
        ],
        "{f:?}"
    );
    assert!(f[0].message.contains("not costed"), "{}", f[0].message);
    assert!(f[1].message.contains("bare byte count"), "{}", f[1].message);
    assert!(f[3].message.contains("raw buffer write"), "{}", f[3].message);
}

#[test]
fn wire_bytes_pairs_arms_in_both_directions() {
    let f = audit_files(
        &[("crates/net/src/codec.rs", include_str!("fixtures/wire_bytes_missing_arms.rs"))],
        &["wire-bytes-conservation"],
    );
    // Line 5: `Emitted` uncosted. Line 10: `Costed` has no encoder arm.
    // Line 16: `Emitted` encoded but never costed.
    assert_eq!(
        rule_lines(&f),
        vec![
            ("wire-bytes-conservation", 5),
            ("wire-bytes-conservation", 10),
            ("wire-bytes-conservation", 16),
        ],
        "{f:?}"
    );
    assert!(f[1].message.contains("no arm encoding it"), "{}", f[1].message);
    assert!(f[2].message.contains("no arm costing it"), "{}", f[2].message);
}

#[test]
fn diagnostics_render_rustc_style() {
    let f = audit("crates/sparsify/src/golden.rs", include_str!("fixtures/nan_ordering.rs"));
    let text = f[0].to_string();
    assert!(text.starts_with("error[dgs::nan-ordering]:"), "{text}");
    assert!(text.contains("--> crates/sparsify/src/golden.rs:5:"), "{text}");
}
