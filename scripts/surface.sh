#!/usr/bin/env bash
# Prints the size of the serving stack's surface: the code-line sum and the
# entry-point counts that ISSUE 12 ("one run path through the serving
# stack") set as acceptance numbers, then the same for ISSUE 14 ("one
# selection engine, one diff path, one per-segment driver") and the product
# size ISSUE 15 ("cut the product crates to what a run reaches") left, and
# what ISSUE 16 ("one-pass exact Top-R% on both ways") added to that sum,
# and what ISSUE 18 ("one random stream, one benchmark harness") left of the
# bench directory and the recordings, and what ISSUE 19 ("small-batch Linear
# touches its weights once per product") added to the compute files, and
# what ISSUE 21 ("one JSON and one property loop, both in the tree") took out
# of the manifests and put into `dgs-tensor`.
# Informational — CI prints it so the trajectory stays visible; nothing
# fails on it. Run from any checkout:
#
#   scripts/surface.sh [REPO_ROOT]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-blank, non-comment lines above a file's first test module
# (`#[cfg(test)]` or `#[cfg(all(test, ..))]`; until ISSUE 21 only the first
# form ended the count, which read the two `all(test, unix)` files of
# `crates/net/src` 334 lines long — the baselines below that this moved are
# restated under the rule as it is now).
code() { awk '/^#\[cfg\((all\()?test/{exit} !/^[[:space:]]*(\/\/|$)/' "$1"; }
# Lines of that code, over several files, matching an extended regex.
hits() { local re=$1 n=0 f; shift; for f in "$@"; do [ -f "$f" ] && n=$((n + $(code "$f" | grep -cE "$re" || true))); done; echo "$n"; }

COUNTED=(
    crates/net/src/{runtime,transport,cluster}.rs
    crates/core/src/{shard,curves,cluster}.rs
    crates/core/src/trainer/{threaded,sharded,schedule}.rs
    src/bin/dgs-cli.rs
)
total=0
for f in "${COUNTED[@]}"; do
    n=$(code "$f" | wc -l)
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  code lines (files a PR adds under crates/net/src, crates/core/src or src/ count too)\n\n' "$total"

RT=crates/net/src/runtime.rs
TR=crates/net/src/transport.rs
STACK=(crates/core/src/*.rs crates/core/src/trainer/{threaded,sharded,schedule,des}.rs crates/net/src/*.rs src/bin/dgs-cli.rs)
row() { printf '%4d  %s\n' "$1" "$2"; }
row "$(hits '^pub fn train' $RT)" "public lockstep drivers in dgs_net::runtime"
row "$(hits '^pub fn serve_training' $RT)" "serve_training* functions"
row "$(hits '^pub struct (LogicHandler|ShardedLogicHandler|SpanLogic)\b' $RT)" "handler structs over server logic"
row "$(hits '^[[:space:]]+loss_sum: f64,' "${STACK[@]}")" "run-telemetry implementations (structs accumulating a loss window)"
row "$(hits 'seq\)? (==|!=|>) \*?(applied|done) \+ 1' $RT $TR)" "seq-vs-applied decision sites (runtime + transport)"
row "$(hits 'cfg\.server_log_nnz' "${STACK[@]}")" "TrainConfig -> server-tunables sites (readers of the server-only fields)"
row "$(hits 'Dense\(.*span\.range\(\)' "${STACK[@]}")" "split-by-span implementations"
row "$(hits 'chunks\.extend\(' crates/core/src/{shard,cluster}.rs crates/net/src/cluster.rs)" "reassemble implementations"
row "$(hits '\.aux_bytes\(\)|MemoryReport::analytic\(' crates/core/src/curves.rs crates/core/src/trainer/{threaded,sharded,schedule,des}.rs crates/net/src/runtime.rs src/bin/dgs-cli.rs)" "worker_aux_bytes plumbing sites"

# ISSUE 14: selection, downlink construction and the per-segment loop.
echo
SPARSIFY=(
    crates/core/src/{compress,server,shard,worker,config,segments}.rs
    crates/sparsify/src/{topk,merge,radix_select,random_drop,sampled,lib}.rs
    crates/tensor/src/matmul.rs
)
total=0
for f in "${SPARSIFY[@]}"; do
    [ -f "$f" ] || continue
    n=$(code "$f" | wc -l)
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  code lines (2341 before ISSUE 14; files a PR adds under crates/*/src count too)\n' "$total"

# ISSUE 16 paid for its speed in selection code: the same sum before it,
# and the two kernel files its scans live in (not part of the sum).
printf '%6d  of that sum before ISSUE 16 (carried guesses, one-pass settle, fused producers)\n' 1963
printf '%6d  crates/tensor/src/kernel.rs (324 before ISSUE 16)\n' "$(code crates/tensor/src/kernel.rs | wc -l)"
printf '%6d  crates/tensor/src/simd.rs (527 before ISSUE 16)\n' "$(code crates/tensor/src/simd.rs | wc -l)"
echo

SRC=(crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs src/bin/*.rs)
row "$(cat "${SRC[@]}" | grep -cE 'SelectStrategy|DiffStrategy' || true)" "SelectStrategy|DiffStrategy occurrences in crates/*/src + src/ (tests and comments included)"
row "$(hits 'fn set_(select|diff)_strategy' "${SRC[@]}")" "strategy setters"
row "$(hits 'SelectScratch::from_buffers\(' crates/core/src/*.rs)" "SelectScratch::from_buffers( call sites in crates/core/src (per-segment skeletons)"
row "$(awk '/^pub struct TrainConfig \{/{on=1;next} on&&/^\}/{exit} on&&/^    pub [a-z_]+:/{n++} END{print n+0}' crates/core/src/config.rs)" "TrainConfig fields"
row "$(awk '/^\[workspace\.dependencies\]/{on=1;next} /^\[/{on=0} on&&/=/&&!/^#/&&!/path *=/{n++} END{print n+0}' Cargo.toml)" "registry crates in [workspace.dependencies]"

# ISSUE 15: the six product crates hold what a run, an experiment or a
# reference suite reaches. Regrowth shows as the sum rising, or as plain-`pub`
# items that no file but their own names (lexical: a method that shares its
# name with anything elsewhere is not counted).
echo
PRODUCT=$(find crates/{tensor,sparsify,psim,nn,core,net}/src -name '*.rs' | sort)
total=0
for f in $PRODUCT; do total=$((total + $(code "$f" | wc -l))); done
total_product=$total
printf '%6d  product code lines over crates/{tensor,sparsify,psim,nn,core,net}/src (11923 before ISSUE 15, 11018 after it)\n' "$total"
EVERYWHERE=$(find crates src tests examples -name '*.rs')
lonely=0
for f in $PRODUCT; do
    for name in $(code "$f" | sed -nE 's/^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|trait|const|type|static) ([A-Za-z_][A-Za-z0-9_]*).*/\3/p' | sort -u); do
        # -c, not -q: a reader that exits early SIGPIPEs the lister under pipefail.
        [ "$(grep -lw -- "$name" $EVERYWHERE | grep -cvx "$f")" -ne 0 ] || lonely=$((lonely + 1))
    done
done
row "$lonely" "plain-pub items named in no file but their own (61 before ISSUE 15)"

# ISSUE 17: the conv data path (panel lowering, row-run col2im, one working
# set per task, set/add copy-out) and the byte-bounded scratch replaced the
# im2col matrix, the per-image buffer tuples and the 64-slot pool. It did
# not come out smaller: the padded-plane staging, the second (transposed)
# lowering and the shelf's bound cost more lines than the append-form
# im2col and the tuple plumbing freed.
echo
COMPUTE=(crates/tensor/src/{conv,gemm,scratch,kernel}.rs crates/nn/src/{layer,resnet,model}.rs)
before=(258 205 74 448 504 185 130)
total=0
for i in "${!COMPUTE[@]}"; do
    n=$(code "${COMPUTE[$i]}" | wc -l)
    printf '%6d  %s (%d before ISSUE 17)\n' "$n" "${COMPUTE[$i]}" "${before[$i]}"
    total=$((total + n))
done
printf '%6d  code lines (1804 before ISSUE 17)\n' "$total"
row "$(hits 'fn im2col_single|Vec<\(Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>\)>' crates/tensor/src/conv.rs)" "im2col matrix form / per-image buffer tuples left in conv.rs product code"
row "$(hits 'take_zeroed\(' crates/tensor/src/conv.rs crates/nn/src/*.rs)" "take_zeroed( sites in conv.rs + crates/nn/src (accumulators only; 10 before ISSUE 17)"


# ISSUE 18: `rand` and `criterion` left the workspace (the "registry crates"
# row above read 6 before it), with the six criterion benches and the four
# recordings only they produced. What stays are the two plain-`main` grids.
echo
row "$(cat crates/bench/benches/*.rs | wc -l)" "lines in crates/bench/benches/*.rs ($(ls crates/bench/benches/*.rs | wc -l) files; 1613 lines in 8 files before ISSUE 18)"
row "$(ls BENCH_*.json | wc -l)" "BENCH_*.json recordings at the repo root (6 before ISSUE 18)"

# ISSUE 19: the streamed one-row-block GEMM arms (three loops and their
# dispatch, beside the packed driver they bypass at batch ≤ MR) and the
# first-layer input-gradient skip, less the `Kernel::gemm_at_b` wrapper.
# The streamed bodies are safe code compiled a second time under AVX2:
# one `unsafe fn` and one `unsafe` call site more in the tensor crate.
echo
STREAMED=(crates/tensor/src/{gemm,kernel}.rs crates/nn/src/{layer,model}.rs)
before=(233 453 538 126)
total=0
for i in "${!STREAMED[@]}"; do
    n=$(code "${STREAMED[$i]}" | wc -l)
    printf '%6d  %s (%d before ISSUE 19)\n' "$n" "${STREAMED[$i]}" "${before[$i]}"
    total=$((total + n))
done
printf '%6d  code lines (1350 before ISSUE 19)\n' "$total"
row "$(hits '\bunsafe\b' crates/tensor/src/*.rs)" "lines naming unsafe in crates/tensor/src product code (52 before ISSUE 19)"

# ISSUE 21: `serde`, `serde_json` and `proptest` left the workspace (the
# "registry crates" row above read 4 before it; `rayon` is the one left).
# Their work is `dgs_tensor::json` and the seeded property loop beside
# `dgs_tensor::rng::Rng`; the types that cross a file boundary implement the
# module with one `json_struct!` invocation or a short hand impl each.
echo
ALL_RS=$(find crates src tests examples -name '*.rs' -not -path 'crates/ledger/*')
row "$(cat $ALL_RS | grep -cE '^[[:space:]]*#\[derive\(.*(Serialize|Deserialize)' || true)" "derive lines naming Serialize/Deserialize outside crates/ledger (25 before ISSUE 21)"
row "$(cat $ALL_RS | grep -cE '^[[:space:]]*#\[serde\(' || true)" "#[serde(..)] attribute lines (16 before ISSUE 21)"
row "$(cat $ALL_RS | grep -cE '^[[:space:]]*proptest! \{' || true)" "proptest! blocks (10 in 9 files before ISSUE 21)"
row "$(cat $ALL_RS | grep -cE '^[[:space:]]*(dgs_tensor::)?json_struct!\(' || true)" "json_struct! invocations (test-module ones included)"
row "$(code crates/tensor/src/json.rs | wc -l)" "code lines in crates/tensor/src/json.rs (new in ISSUE 21)"
row "$(code crates/tensor/src/rng.rs | wc -l)" "code lines in crates/tensor/src/rng.rs (66 before ISSUE 21: Rng::range, cases, vec_of)"
printf '%6d  product code lines, same sum as the ISSUE 15 row (11842 before ISSUE 21)\n' "$total_product"

