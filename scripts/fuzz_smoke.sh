#!/bin/sh
# fuzz_smoke.sh — short fuzzing pass over every fuzz target, run in CI on
# each PR. Each target first replays its committed corpus (plain `go test`
# does that implicitly) and then fuzzes for FUZZTIME of fresh inputs.
#
# Usage: scripts/fuzz_smoke.sh [fuzztime, default 30s]
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${1:-30s}"

# target:package pairs — `go test -fuzz` accepts one target per run.
for entry in \
    FuzzReadTrace:./internal/trace \
    FuzzReadGOAL:./internal/trace \
    FuzzDecodeHeader:./internal/network \
    FuzzReadCheckpoint:./internal/ckpt \
    FuzzTopologyByName:./internal/topology \
    FuzzParsePlan:./internal/faults \
    FuzzCampaignManifest:./cmd/experiments \
    FuzzBurstSpec:./internal/runner \
    FuzzImportKnowledge:./internal/runner \
; do
    target=${entry%%:*}
    pkg=${entry#*:}
    echo "==> fuzz $target ($pkg, $FUZZTIME)"
    go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg"
done

echo "==> fuzz smoke OK"
