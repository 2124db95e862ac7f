#!/usr/bin/env bash
# Prints where the round ledger's probe loop landed in each given
# dgs-ledger binary, and that address mod 32. Every ledger time is divided
# by the probe's, and the probe runs ≈ 12 % slower at ≡ 0 than at ≡ 16
# (mod 32), so two builds compare only if they share the class (ROADMAP
# item 2(c); `.claude/skills/verify/SKILL.md`, conv data path, item 7).
#
#   scripts/probe_class.sh BIN [BIN...]     exit 1 if the classes differ
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 BIN [BIN...]" >&2; exit 2; }

first=
status=0
for bin in "$@"; do
    # No early exit in awk: that would SIGPIPE nm under pipefail.
    addr=$(nm -C "$bin" | awk '/Probe::tick/ && !addr {addr = $1} END {print addr}')
    [ -n "$addr" ] || { echo "$bin: no Probe::tick symbol (stripped, or not a dgs-ledger)" >&2; exit 2; }
    class=$((16#$addr % 32))
    printf '0x%s  mod 32 = %2d  %s\n' "$addr" "$class" "$bin"
    [ -n "$first" ] || first=$class
    [ "$class" = "$first" ] || status=1
done
[ $status = 0 ] || echo "probe classes differ: time rows of these builds do not compare" >&2
exit $status
