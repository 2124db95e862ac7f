//! Per-rule path scoping. Each rule applies only to files whose
//! workspace-relative path starts with one of its scope prefixes, so the
//! DGS invariants are enforced exactly where they are load-bearing (see
//! DESIGN.md §8 for the rationale table).

/// Names of all rules, in the order they are run and documented.
pub const RULES: &[&str] = &[
    "nan-ordering",
    "determinism",
    "no-panic-io",
    "no-truncating-cast",
    "unsafe-budget",
    "paired-symbols",
    "lock-order",
    "no-blocking-under-lock",
    "panic-reach",
    "wire-bytes-conservation",
];

/// Scope: which path prefixes a rule applies to.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// `/`-separated workspace-relative path prefixes.
    pub include: Vec<&'static str>,
}

/// Full audit configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-rule path scopes.
    pub scopes: Vec<Scope>,
    /// Prefixes where `unsafe` is budgeted (still requires `// SAFETY:`).
    pub unsafe_allowed: Vec<&'static str>,
    /// The lock-order manifest driving the call-graph rules.
    pub manifest: crate::manifest::Manifest,
}

impl Config {
    /// The repo's checked-in rule scoping. Kept in code (not a config
    /// file) so scope changes go through review like any invariant change.
    pub fn default_for_workspace() -> Self {
        Config {
            scopes: vec![
                // Float ordering feeds top-R% selection (PAPER.md Alg. 1/3):
                // a partial_cmp comparator silently reorders NaN magnitudes.
                Scope {
                    rule: "nan-ordering",
                    include: vec![
                        "crates/sparsify/src",
                        "crates/core/src",
                        "crates/psim/src",
                        // The kernel tier handles raw magnitude keys: a
                        // partial_cmp anywhere in the dispatch seam or the
                        // SIMD twins would desync them from the scalar path.
                        "crates/tensor/src/kernel.rs",
                        "crates/tensor/src/simd.rs",
                        // Max-pooling's tie-breaking argmax scan: a float
                        // comparator here silently reorders NaN planes
                        // between the backends.
                        "crates/tensor/src/pool.rs",
                    ],
                },
                // Bit-exact server determinism (Eq. 5 equivalence proofs).
                // The sharded server carries the same proof obligation: its
                // downlinks must be bitwise identical to the global-lock
                // path for any pinned schedule.
                Scope {
                    rule: "determinism",
                    include: vec![
                        "crates/core/src/server.rs",
                        "crates/core/src/shard.rs",
                        "crates/core/src/update_log.rs",
                        "crates/sparsify/src",
                        "crates/net/src/codec.rs",
                        // The incremental decoder and the evented-server
                        // state machine must replay bitwise against the
                        // threaded oracle: no clocks, no entropy, no
                        // randomized iteration in either.
                        "crates/net/src/frame.rs",
                        "crates/net/src/conn.rs",
                        // The cluster fan-out/reassembly and the edge
                        // aggregation cache sit on the bitwise-replay
                        // path: shard-order reassembly and worker-order
                        // merging must be schedule-pure.
                        "crates/net/src/cluster.rs",
                        "crates/net/src/edge.rs",
                        "crates/psim/src/des.rs",
                        // Backend dispatch sits on every bitwise-replay
                        // path: both kernels must stay schedule-pure and
                        // emit-order identical (the differential suites
                        // prove it; the rule keeps entropy out).
                        "crates/tensor/src/kernel.rs",
                        "crates/tensor/src/simd.rs",
                        "crates/net/src/crc_simd.rs",
                        // The compute tier proper: the blocked GEMM's
                        // accumulation order, the im2col lowering, the
                        // pooling planes, and the scratch pools all feed
                        // the trained-bits-identical contract — clocks,
                        // entropy, or hash iteration anywhere here would
                        // break replay across backends and rayon splits.
                        "crates/tensor/src/gemm.rs",
                        "crates/tensor/src/conv.rs",
                        "crates/tensor/src/pool.rs",
                        "crates/tensor/src/scratch.rs",
                    ],
                },
                // "Error, never panic" wire paths (PR 2 contract).
                Scope { rule: "no-panic-io", include: vec!["crates/net/src"] },
                Scope {
                    rule: "no-truncating-cast",
                    include: vec!["crates/net/src/codec.rs", "crates/net/src/frame.rs"],
                },
                // unsafe-budget runs everywhere; the allowlist narrows it.
                Scope { rule: "unsafe-budget", include: vec!["crates", "src"] },
                Scope {
                    rule: "paired-symbols",
                    include: vec!["crates/net/src/codec.rs", "crates/core/src/protocol.rs"],
                },
                // Call-graph tier (DESIGN.md §8): everywhere the named
                // mutex family lives. Scope governs where findings land;
                // the graph itself spans every parsed file.
                Scope {
                    rule: "lock-order",
                    include: vec!["crates/core/src", "crates/net/src"],
                },
                Scope {
                    rule: "no-blocking-under-lock",
                    include: vec!["crates/core/src", "crates/net/src"],
                },
                // Wire-path entry files are named by the manifest; the
                // scope just bounds which files the walker reports on.
                Scope { rule: "panic-reach", include: vec!["crates/net/src"] },
                Scope {
                    rule: "wire-bytes-conservation",
                    include: vec!["crates/net/src/codec.rs", "crates/core/src/protocol.rs"],
                },
            ],
            // SIMD kernels in tensor, the PCLMULQDQ CRC backend, plus the
            // event loop's poll(2) FFI shim — the registry is
            // offline, so the syscall surface is declared by hand in
            // exactly one file.
            unsafe_allowed: vec![
                "crates/tensor/src",
                "crates/net/src/crc_simd.rs",
                "crates/net/src/poll.rs",
            ],
            manifest: crate::manifest::parse(crate::manifest::DEFAULT_MANIFEST)
                .expect("embedded audit-lock-order.toml must parse"),
        }
    }

    /// Like [`Config::default_for_workspace`], but loads the manifest
    /// from `<root>/audit-lock-order.toml` when present so local edits
    /// take effect without rebuilding the tool.
    pub fn for_workspace_root(root: &std::path::Path) -> Result<Self, String> {
        let mut cfg = Self::default_for_workspace();
        let path = root.join("audit-lock-order.toml");
        if let Ok(text) = std::fs::read_to_string(&path) {
            cfg.manifest = crate::manifest::parse(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(cfg)
    }

    /// Does `rule` apply to the file at `rel_path` (always `/`-separated)?
    pub fn applies(&self, rule: &str, rel_path: &str) -> bool {
        self.scopes
            .iter()
            .filter(|s| s.rule == rule)
            .any(|s| s.include.iter().any(|p| path_has_prefix(rel_path, p)))
    }

    /// Is `unsafe` inside its budget at `rel_path`?
    pub fn unsafe_is_allowed(&self, rel_path: &str) -> bool {
        self.unsafe_allowed.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

/// Component-wise prefix match: `crates/net/src` matches
/// `crates/net/src/tcp.rs` but `crates/net` does NOT match `crates/nettle`.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_components_not_substrings() {
        assert!(path_has_prefix("crates/net/src/tcp.rs", "crates/net/src"));
        assert!(path_has_prefix("crates/net/src", "crates/net/src"));
        assert!(!path_has_prefix("crates/nettle/src/x.rs", "crates/net"));
    }

    #[test]
    fn default_scopes_cover_the_invariant_files() {
        let cfg = Config::default_for_workspace();
        assert!(cfg.applies("nan-ordering", "crates/sparsify/src/topk.rs"));
        assert!(cfg.applies("nan-ordering", "crates/sparsify/src/radix_select.rs"));
        assert!(cfg.applies("nan-ordering", "crates/psim/src/des.rs"));
        assert!(!cfg.applies("nan-ordering", "crates/net/src/tcp.rs"));
        assert!(cfg.applies("determinism", "crates/core/src/server.rs"));
        assert!(cfg.applies("determinism", "crates/core/src/shard.rs"));
        assert!(cfg.applies("determinism", "crates/sparsify/src/radix_select.rs"));
        assert!(cfg.applies("determinism", "crates/sparsify/src/sampled.rs"));
        assert!(cfg.applies("determinism", "crates/net/src/frame.rs"));
        assert!(cfg.applies("determinism", "crates/net/src/conn.rs"));
        assert!(cfg.applies("determinism", "crates/net/src/cluster.rs"));
        assert!(cfg.applies("determinism", "crates/net/src/edge.rs"));
        assert!(!cfg.applies("determinism", "crates/net/src/event_loop.rs"));
        assert!(!cfg.applies("determinism", "crates/core/src/trainer/threaded.rs"));
        assert!(cfg.applies("no-panic-io", "crates/net/src/transport.rs"));
        assert!(!cfg.applies("no-panic-io", "crates/core/src/server.rs"));
        assert!(cfg.applies("no-truncating-cast", "crates/net/src/frame.rs"));
        assert!(!cfg.applies("no-truncating-cast", "crates/net/src/tcp.rs"));
        assert!(cfg.applies("unsafe-budget", "crates/tensor/src/simd.rs"));
        assert!(cfg.applies("unsafe-budget", "src/main.rs"));
        assert!(cfg.applies("paired-symbols", "crates/net/src/codec.rs"));
        assert!(cfg.applies("no-panic-io", "crates/net/src/poll.rs"));
        assert!(cfg.applies("no-panic-io", "crates/net/src/event_loop.rs"));
        assert!(cfg.unsafe_is_allowed("crates/tensor/src/simd.rs"));
        assert!(cfg.unsafe_is_allowed("crates/net/src/poll.rs"));
        assert!(cfg.unsafe_is_allowed("crates/net/src/crc_simd.rs"));
        assert!(!cfg.unsafe_is_allowed("crates/net/src/tcp.rs"));
        assert!(!cfg.unsafe_is_allowed("crates/net/src/conn.rs"));
        assert!(cfg.applies("nan-ordering", "crates/tensor/src/simd.rs"));
        assert!(cfg.applies("nan-ordering", "crates/tensor/src/kernel.rs"));
        assert!(cfg.applies("nan-ordering", "crates/tensor/src/pool.rs"));
        assert!(!cfg.applies("nan-ordering", "crates/tensor/src/lib.rs"));
        assert!(cfg.applies("determinism", "crates/tensor/src/kernel.rs"));
        assert!(cfg.applies("determinism", "crates/net/src/crc_simd.rs"));
        assert!(cfg.applies("determinism", "crates/tensor/src/gemm.rs"));
        assert!(cfg.applies("determinism", "crates/tensor/src/conv.rs"));
        assert!(cfg.applies("determinism", "crates/tensor/src/pool.rs"));
        assert!(cfg.applies("determinism", "crates/tensor/src/scratch.rs"));
        // The thin wrapper stays out of scope: it only forwards to gemm.
        assert!(!cfg.applies("determinism", "crates/tensor/src/matmul.rs"));
    }
}
