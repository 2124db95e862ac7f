#!/usr/bin/env bash
# Tier-1's stand-in while cargo cannot resolve a registry: builds and runs
# every target of the workspace with bare rustc, against the committed
# sources and the shim crates under crates/ledger/offline/shims only (of
# which the workspace still names one, the sequential `rayon`).
#
#   scripts/offline_test.sh [OUT_DIR]      default: target/offline-test
#
# `crates/ledger/offline/build.sh OUT_DIR --tests` builds the product rlibs,
# dgs-ledger and its unit tests; then one loop compiles every crate's unit
# tests and doctests, every integration test, the examples, the bench grids
# and the binaries, passing every workspace rlib and `rayon` to every call
# (an unused --extern is silent; compiler warnings stay in each target's
# .log). Test binaries run from their package directory, as under cargo.
# Prints one line per target and exits non-zero if anything failed to build
# or any test failed.
set -uo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${1:-$ROOT/target/offline-test}
case $OUT in /*) ;; *) OUT=$PWD/$OUT ;; esac
mkdir -p "$OUT"
C=$ROOT/crates

"$C/ledger/offline/build.sh" "$OUT" --tests || { echo "offline_test: build.sh failed" >&2; exit 1; }

# `env!("CARGO_BIN_EXE_<name>")` is what cargo hands an integration test of
# the package that owns the binary (no `export`: the names hold a dash).
RUSTC=(env "CARGO_BIN_EXE_dgs-cli=$OUT/dgs-cli" "CARGO_BIN_EXE_experiments=$OUT/experiments"
    rustc --edition 2021 -C opt-level=3 -L "$OUT")
EXTERNS=()
externs() {
    EXTERNS=()
    for rlib in "$OUT"/libdgs*.rlib "$OUT/librayon.rlib"; do
        name=$(basename "$rlib" .rlib)
        EXTERNS+=(--extern "${name#lib}=$rlib")
    done
}

failed=0
built=0
# build KIND LABEL SOURCE OUTPUT [RUSTC_ARG...]
build() {
    local kind=$1 label=$2 src=$3 out=$4
    shift 4
    if "${RUSTC[@]}" "${EXTERNS[@]}" "$@" "$src" -o "$out" 2>"$out.log"; then
        built=$((built + 1))
        [ "$kind" = test ] || printf '%-46s built\n' "$label"
    else
        failed=$((failed + 1))
        printf '%-46s BUILD FAILED (%s.log)\n' "$label" "$out"
        sed -n '1,40p' "$out.log"
        return 1
    fi
}

passed_total=0
failed_total=0
# run LABEL OUTPUT_FILE PACKAGE_DIR COMMAND...: the test harness COMMAND, run
# from PACKAGE_DIR, its output kept in OUTPUT_FILE and its counts tallied.
run() {
    local label=$1 out=$2 dir=$3 summary passed bad status
    shift 3
    (cd "$dir" && "$@") >"$out" 2>&1
    status=$?
    summary=$(grep -E '^test result:' "$out" | tail -1)
    passed=$(sed -nE 's/.* ([0-9]+) passed.*/\1/p' <<<"$summary")
    bad=$(sed -nE 's/.* ([0-9]+) failed.*/\1/p' <<<"$summary")
    passed_total=$((passed_total + ${passed:-0}))
    failed_total=$((failed_total + ${bad:-0}))
    if [ $status -eq 0 ]; then
        printf '%-46s %4d passed\n' "$label" "${passed:-0}"
    else
        failed=$((failed + 1))
        printf '%-46s %4d passed %4d FAILED (%s)\n' "$label" "${passed:-0}" "${bad:-0}" "$out"
        grep -E '^(---- .* ----|test .* FAILED|thread .* panicked)' "$out" | sed -n '1,40p'
    fi
}

# Libraries the frozen build.sh does not build: the facade, the harness
# library and the (dependency-free) audit.
externs
build lib dgs "$ROOT/src/lib.rs" "$OUT/libdgs.rlib" --crate-type rlib --crate-name dgs
build lib dgs_bench "$C/bench/src/lib.rs" "$OUT/libdgs_bench.rlib" --crate-type rlib --crate-name dgs_bench
build lib dgs_audit "$C/audit/src/lib.rs" "$OUT/libdgs_audit.rlib" --crate-type rlib --crate-name dgs_audit
externs

# Binaries, examples and the plain-`main` bench grids.
build bin dgs-cli "$ROOT/src/bin/dgs-cli.rs" "$OUT/dgs-cli"
build bin dgs-audit "$C/audit/src/main.rs" "$OUT/dgs-audit"
for src in "$C"/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    build bin "dgs-bench/$name" "$src" "$OUT/$name"
done
for src in "$ROOT"/examples/*.rs "$C"/bench/benches/*.rs; do
    name=$(basename "$src" .rs)
    build bin "${src#"$ROOT"/}" "$src" "$OUT/$(basename "$(dirname "$src")")-$name"
done

# Unit tests and doctests of every crate (the ledger's unit tests ran inside
# build.sh; it has no doctests).
for dir in "$C"/*/ "$ROOT/"; do
    dir=${dir%/}
    [ "$dir" = "$C/ledger" ] && continue
    if [ "$dir" = "$ROOT" ]; then name=dgs; else name=dgs_$(basename "$dir"); fi
    build test "$name (unit)" "$dir/src/lib.rs" "$OUT/unit-$name" --test --crate-name "$name" &&
        run "$name (unit)" "$OUT/unit-$name.out" "$dir" "$OUT/unit-$name" --quiet
    run "$name (doc)" "$OUT/doc-$name.out" "$dir" rustdoc --test --edition 2021 -L "$OUT" \
        "${EXTERNS[@]}" --crate-name "$name" "$dir/src/lib.rs"
done

# Integration tests.
for src in "$C"/*/tests/*.rs "$ROOT"/tests/*.rs; do
    dir=$(dirname "$(dirname "$src")")
    label=${src#"$ROOT"/}
    bin=$OUT/it-$(basename "$dir")-$(basename "$src" .rs)
    build test "$label" "$src" "$bin" --test && run "$label" "$bin.out" "$dir" "$bin" --quiet
done

echo
printf 'targets built: %d   tests passed: %d   tests failed: %d   targets failed: %d\n' \
    "$built" "$passed_total" "$failed_total" "$failed"
[ "$failed" -eq 0 ]
