#!/bin/sh
# resume_smoke.sh — checkpoint/resume equivalence smoke: the resume group
# of cmd/internal/gate, run by scripts/verify.sh and CI's gate job.
#
# Four presets — serial synthetic, serial faulted, sharded (shards=4) and
# heavy-tail on a dragonfly (shards=2) — each run three ways:
#
#   1. uninterrupted                          -> summary A
#   2. -checkpoint -checkpoint-exit           (stops at mid-run, writes file)
#   3. -resume from that file, run to the end -> summary B
#
# A and B must be byte-identical (cmp, no tolerance): a resumed run is the
# same run. The resume itself replays from t = 0 and refuses to continue
# unless the replay reproduces the checkpoint's determinism seal.
#
# Then a small campaign is killed mid-flight with SIGINT and restarted; the
# restart must skip every cell committed before the kill and finish the
# rest without failures.
#
# Usage: scripts/resume_smoke.sh
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/prdrbsim" ./cmd/prdrbsim
go build -o "$TMP/experiments" ./cmd/experiments

run_preset() {
    name=$1
    shift
    echo "==> resume preset: $name"
    "$TMP/prdrbsim" "$@" > "$TMP/$name.full" 2>/dev/null
    "$TMP/prdrbsim" "$@" -checkpoint "$TMP/$name.ckpt" -checkpoint-exit >/dev/null 2>&1
    test -s "$TMP/$name.ckpt" || { echo "    FAIL: no checkpoint written"; exit 1; }
    "$TMP/prdrbsim" "$@" -resume "$TMP/$name.ckpt" > "$TMP/$name.resumed" 2>/dev/null
    cmp "$TMP/$name.full" "$TMP/$name.resumed" || {
        echo "    FAIL: resumed summary differs from uninterrupted run"
        diff "$TMP/$name.full" "$TMP/$name.resumed" || true
        exit 1
    }
    echo "    summaries byte-identical"
}

run_preset serial \
    -topology ft-4-3 -policy pr-drb -pattern shuffle -rate 400 -bursts 0 -duration 300us
run_preset faulted \
    -topology mesh-4x4 -policy pr-drb -pattern uniform -rate 300 -bursts 0 -duration 300us \
    -faults "rand2@50us+100us~300us"
run_preset sharded \
    -topology ft-4-3 -policy pr-drb -pattern shuffle -rate 400 -bursts 0 -duration 300us -shards 4
run_preset heavytail \
    -topology df-4-8-2-2 -policy pr-drb -heavytail cache -ht-pattern grouplocal -rate 300 \
    -bursts 0 -duration 300us -shards 2

echo "==> campaign kill/restart"
cat > "$TMP/camp.json" <<'MANIFEST'
{
  "topologies": ["ft-4-3"],
  "policies": ["pr-drb"],
  "patterns": ["shuffle", "uniform"],
  "rates_mbps": [600],
  "seeds": [1, 2, 3],
  "duration": "400us"
}
MANIFEST

"$TMP/experiments" -campaign "$TMP/camp.json" -campaign-dir "$TMP/camps" \
    -procs 1 > "$TMP/camp1.log" 2>&1 &
CPID=$!
# Wait until at least one cell result is committed, then interrupt. If the
# campaign finishes first that is fine too — every cell is then committed.
i=0
while [ "$i" -lt 600 ]; do
    n=$(find "$TMP/camps" -name '*__*.json' 2>/dev/null | wc -l)
    [ "$n" -ge 1 ] && break
    kill -0 "$CPID" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
kill -INT "$CPID" 2>/dev/null || true
wait "$CPID" 2>/dev/null || true

committed=$(find "$TMP/camps" -name '*__*.json' | wc -l)
[ "$committed" -ge 1 ] || { echo "FAIL: no cell committed before the kill"; cat "$TMP/camp1.log"; exit 1; }
find "$TMP/camps" -name '*.tmp*' | grep -q . && echo "    (leftover temp files present — restart must sweep them)"

"$TMP/experiments" -campaign "$TMP/camp.json" -campaign-dir "$TMP/camps" \
    -procs 1 > "$TMP/camp2.log" 2>&1 || {
    echo "FAIL: campaign restart failed"; cat "$TMP/camp2.log"; exit 1
}
skipped=$(grep -c "skipped (already done)" "$TMP/camp2.log" || true)
[ "$skipped" -eq "$committed" ] || {
    echo "FAIL: $committed cells were committed before the kill but restart skipped $skipped"
    cat "$TMP/camp2.log"; exit 1
}
grep -q ", 0 failed" "$TMP/camp2.log" || {
    echo "FAIL: restarted campaign reported failures"; cat "$TMP/camp2.log"; exit 1
}
echo "    restart skipped $skipped committed cells, finished the rest"

echo "==> resume smoke OK"
