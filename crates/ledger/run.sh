#!/usr/bin/env bash
# The round ledger's one command. Builds dgs-ledger if its sources changed,
# then hands every argument to it:
#
#   crates/ledger/run.sh [--seed N] [--workload NAME] [--smoke] [--out FILE]
#       all workloads untraced, then traced, then the output checks;
#       prints every metric by name with its unit, then one JSON document
#   crates/ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run in the BENCHMARK.json contract format
#   crates/ledger/run.sh compare A.json B.json
#
# Build: `cargo build --release -p dgs-ledger --offline` when the registry
# resolves, else offline/build.sh (bare rustc + shim crates). Build output
# goes to stderr; artifacts go under $CARGO_TARGET_DIR (default: target/).
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
TARGET=${CARGO_TARGET_DIR:-$ROOT/target}
case $TARGET in /*) ;; *) TARGET=$PWD/$TARGET ;; esac
export CARGO_TARGET_DIR=$TARGET

CARGO_BIN=$TARGET/release/dgs-ledger
SHIM_BIN=$TARGET/ledger-offline/dgs-ledger

# A binary is fresh when no workspace source, manifest or build script is
# newer than it.
fresh() {
    [ -x "$1" ] && [ -z "$(find "$ROOT/crates" "$ROOT/Cargo.toml" -newer "$1" \
        \( -name '*.rs' -o -name '*.toml' -o -name '*.sh' \) -print -quit)" ]
}

if fresh "$CARGO_BIN"; then
    BIN=$CARGO_BIN MODE=cargo
elif fresh "$SHIM_BIN"; then
    BIN=$SHIM_BIN MODE=offline-shims
elif (cd "$ROOT" && timeout 600 cargo build --release --offline -p dgs-ledger) >&2; then
    BIN=$CARGO_BIN MODE=cargo
else
    echo "run.sh: cargo could not build dgs-ledger (no registry?); using offline/build.sh" >&2
    "$HERE/offline/build.sh" "$(dirname "$SHIM_BIN")" >&2
    BIN=$SHIM_BIN MODE=offline-shims
fi

# An offline-shims build is sequential by construction (shim rayon runs on
# the calling thread) and the load is lockstep, so driver and server never
# compute at the same time. Pinning both to one CPU then serialises nothing
# new, and removes the cross-vCPU wake-up latency that on a 2-vCPU VM flips
# small-message round times between two modes for minutes at a time. A
# cargo build (real rayon) stays unpinned so parallel kernels can show.
PIN=()
if [ "$MODE" = offline-shims ] && command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed 's/.*[ ,-]//')
    if taskset -c "$cpu" true 2>/dev/null; then
        PIN=(taskset -c "$cpu")
        export DGS_LEDGER_PINNED_CPU=$cpu
    fi
fi

export DGS_LEDGER_BUILD_MODE=$MODE
DGS_LEDGER_RUSTC=$(rustc --version)
export DGS_LEDGER_RUSTC
exec "${PIN[@]}" "$BIN" "$@"
