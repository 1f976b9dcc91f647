#!/bin/sh
# results_gate.sh — regenerate every experiment report and CSV series and
# compare them with the committed results/ (~11 s at -procs 2 on 2 vCPUs).
# Fails on any byte difference and on any generated file that is not
# committed under results/. A change that means to move a report
# regenerates the tree with `go run ./cmd/experiments -procs 2`.
#
# Usage: scripts/results_gate.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/experiments -out "$tmp/out" -procs 2 > "$tmp/log" 2>&1 || {
    cat "$tmp/log" >&2
    echo "results_gate: the experiments harness failed" >&2
    exit 1
}
bad=0
for f in "$tmp"/out/*; do
    name=$(basename "$f")
    if ! git ls-files --error-unmatch "results/$name" >/dev/null 2>&1; then
        echo "results_gate: results/$name is generated but not committed" >&2
        bad=1
    elif ! cmp -s "results/$name" "$f"; then
        echo "results_gate: results/$name differs from its regeneration:" >&2
        diff "results/$name" "$f" | head -20 >&2 || true
        bad=1
    fi
done
[ "$bad" = 0 ] || exit 1
echo "    $(ls "$tmp/out" | wc -l) generated files identical to results/"
