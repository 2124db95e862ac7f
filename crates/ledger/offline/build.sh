#!/usr/bin/env bash
# Offline build of dgs-ledger: bare rustc over the real workspace sources
# plus the shim crates in ./shims, for containers where cargo cannot
# resolve a registry. Usage: build.sh OUT_DIR [--tests]
#
# Flags mirror `cargo build --release` (opt-level 3, default target
# features, default codegen units). Rlibs are rebuilt in dependency order
# every time: a changed upstream rlib invalidates everything downstream.
set -euo pipefail

OUT=${1:?usage: build.sh OUT_DIR [--tests]}
TESTS=${2:-}
HERE=$(cd "$(dirname "$0")" && pwd)
LEDGER=$(dirname "$HERE")
ROOT=$(cd "$LEDGER/../.." && pwd)
mkdir -p "$OUT"

RUSTC=(rustc --edition 2021 -C opt-level=3 -L "$OUT")
# Warnings in the workspace's and the shims' code are not this build's
# business; the ledger's own are.
QUIET=(--cap-lints allow)

# lib CRATE_NAME SOURCE [DEP...]
lib() {
    local name=$1 src=$2 externs=()
    shift 2
    for dep in "$@"; do
        if [ "$dep" = serde_derive ]; then
            externs+=(--extern "serde_derive=$OUT/libserde_derive.so")
        else
            externs+=(--extern "$dep=$OUT/lib$dep.rlib")
        fi
    done
    "${RUSTC[@]}" "${QUIET[@]}" --crate-type rlib --crate-name "$name" "$src" "${externs[@]}" -o "$OUT/lib$name.rlib"
}

S=$HERE/shims
"${RUSTC[@]}" "${QUIET[@]}" --crate-type proc-macro --crate-name serde_derive "$S/serde_derive.rs" -o "$OUT/libserde_derive.so"
lib serde "$S/serde.rs" serde_derive
lib serde_json "$S/serde_json.rs"
lib rand "$S/rand.rs"
lib bytes "$S/bytes.rs"
lib rayon "$S/rayon.rs"
lib crossbeam "$S/crossbeam.rs"

C=$ROOT/crates
lib dgs_tensor "$C/tensor/src/lib.rs" rand rayon serde
lib dgs_sparsify "$C/sparsify/src/lib.rs" bytes dgs_tensor rand serde
lib dgs_psim "$C/psim/src/lib.rs" crossbeam bytes serde
lib dgs_nn "$C/nn/src/lib.rs" dgs_tensor dgs_sparsify rand rayon serde serde_json
lib dgs_core "$C/core/src/lib.rs" dgs_tensor dgs_nn dgs_sparsify dgs_psim crossbeam rand rayon serde serde_json
lib dgs_net "$C/net/src/lib.rs" dgs_core dgs_nn dgs_sparsify dgs_tensor

LEDGER_DEPS=(dgs_tensor dgs_sparsify dgs_psim dgs_nn dgs_core dgs_net)
QUIET=()
lib dgs_ledger "$LEDGER/src/lib.rs" "${LEDGER_DEPS[@]}"
"${RUSTC[@]}" --crate-name dgs_ledger_bin "$LEDGER/src/main.rs" \
    --extern "dgs_ledger=$OUT/libdgs_ledger.rlib" -o "$OUT/dgs-ledger"

if [ "$TESTS" = --tests ]; then
    externs=()
    for dep in "${LEDGER_DEPS[@]}"; do externs+=(--extern "$dep=$OUT/lib$dep.rlib"); done
    "${RUSTC[@]}" --test --crate-name dgs_ledger "$LEDGER/src/lib.rs" "${externs[@]}" -o "$OUT/dgs-ledger-tests"
    "$OUT/dgs-ledger-tests" --quiet
fi
