#!/bin/sh
# verify.sh — the full pre-merge gate: every group of cmd/internal/gate but
# fuzz (`go run ./cmd/internal/gate -list` prints the table).
#
# Usage: scripts/verify.sh [extra go-test args for the race suite]
set -eu
cd "$(dirname "$0")/.."
exec go run ./cmd/internal/gate -- "$@"
