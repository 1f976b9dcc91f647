#!/bin/sh
# verify.sh — the full pre-merge gate: static analysis, build, and the
# test suite under the race detector (the experiment harness and the
# fault injector fan simulations out across goroutines).
#
# Usage: scripts/verify.sh [extra go-test args]
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> CHANGES.md entries <= 1024 bytes"
LC_ALL=C awk 'length($0) > 1024 { print "verify: CHANGES.md line " NR " is " length($0) " bytes, over 1024" > "/dev/stderr"; bad = 1 } END { exit bad }' CHANGES.md

echo "==> go test -race ./... $*"
go test -race "$@" ./...

echo "==> window-barrier stress (race, GOMAXPROCS 1/2/4 x10)"
# The shard group's epoch/done barrier is hand-rolled: one -race pass at
# the host's GOMAXPROCS neither hits fewer workers than shards nor
# repeats enough interleavings to trust it.
go test -race -count=10 -cpu 1,2,4 -timeout 5m -run 'ShardGroup|GroupProbe' ./internal/sim

echo "==> zero-alloc guards (TestHotPathZeroAlloc, TestHotPathZeroAllocPRDRB/steady, /cold-open and /cfd)"
# The adaptive hot path, the PR-DRB control plane in steady state (both 0
# allocations per 20k events), the pinned bill of a cold path-open, and the
# contending-flows notification path on the bursts cell (0 allocations
# outside the solution saves, counted per allocating function). -v prints
# the cold-open count and the solution-save allocations.
go test -run 'TestHotPathZeroAlloc(PRDRB)?$' -count=1 -v .

echo "==> one-event-per-hop guards (race, GOMAXPROCS 1/2/4)"
# Reserved sequence numbers, the lazy link-free state machine, sequence
# conservation against the constants of the eager build, the route memo
# against the topologies, and the pinned events per packet.
go test -race -cpu 1,2,4 -count=1 -run 'Reserved|LazyFree|SeqConservation|RouteMemo|EventsPerHop' \
    ./internal/sim ./internal/network ./internal/routing .

echo "==> closure-scheduling gate (Engine.Schedule/After outside internal/sim)"
# Every model component is a typed actor; the closure shim is left to the
# engine's own package, the fabric's cold ScheduleControl and the frozen
# benchmark. A new call site is a per-event allocation coming back.
if grep -rnE '\.(Schedule|After)\(' --include='*.go' . | grep -v '_test\.go:' |
    grep -vE '^\./(internal/sim/|internal/network/shard\.go:|benchmark/)'; then
    echo "verify: closure scheduling outside internal/sim (use ScheduleEvent/AfterEvent on an actor)" >&2
    exit 1
fi

echo "==> window-mode, CFD-tally, path-enumeration, sampler and typed-source guards (race, GOMAXPROCS 1/2/4)"
# The mode rule and its equivalence cells (inline, released and alternating
# windows give one result), the sharded determinism matrix, the incremental
# contending-flows tally against the recount, the grid, dragonfly and tree
# path enumerations against the reflection-sorted ones (with their
# allocation bounds, and two goroutines enumerating on one topology value),
# and the quiescent-point sampler: its barrier hook runs on the coordinator
# while workers may be parked, reads every shard, and must neither race nor
# change what the run executes. Then the typed actors against the closures
# they replaced (trace and GOAL replay, the pattern source serial and on two
# shards), the burst train against the eager per-burst installation and its
# allocation pins, the runner's refusal of hostile traffic specs, the
# solution database's value copies, the FR-DRB watchdog as a typed
# controller event, flow evidence recorded only under pr-drb, the two-pass trace builder against plain appending (and its one
# exact array), every generator's program against its pinned hash, the
# encoded bytes per event, and the generation and replay allocation pins. Last, the fabric's port layout:
# the circular VC FIFO against a slice-backed reference, its byte count
# read through the packets' stamps (wrapping past 2^32), the one-list
# invariant of every packet record on a flapping, congested dragonfly
# (serial and two shards), that no two records share contending-set
# storage (both notification modes), the record sizes, and what building a
# fabric allocates.
go test -race -cpu 1,2,4 -count=1 -run 'ShardGroup|WindowMode|ShardedDeterminism|ContendingFlows|AlternativePaths|ShardedStatus|SampleEvery|ReplayMatchesClosures|PatternSourceMatchesClosures|BurstTrain|HostileTrafficSpecs|SaveStoresValues|BuildMatchesAppend|BuildOneExactArray|ProgramsGolden|TraceBytesPerEvent|RecordLen|GenerateAllocs|ReplayAllocs|WatchdogEvent|FlowEvidenceOnlyPredictive|VCQueueMatchesSlice|VCQueueBytes|PortInvariants|ContendingStorage|LayoutSizes|BuildBytesLadder' \
    ./internal/sim ./internal/network ./internal/topology ./internal/runner ./internal/trace ./internal/traffic ./internal/workloads ./internal/core .

echo "==> simulated-statistics digests (benchmark smoke vs results/bench.smoke.digests.txt)"
# The benchmark's sim_digest hashes every Results field of every cell and
# is deterministic for the default seed, so a host-speed change proves
# "simulated output bit-identical" here rather than by assertion. A change
# that means to alter simulated behaviour regenerates the file with
#   go run ./benchmark -smoke | grep '^sim_digest' > results/bench.smoke.digests.txt
go run ./benchmark -smoke 2>/dev/null | grep '^sim_digest' | diff results/bench.smoke.digests.txt - || {
    echo "verify: benchmark smoke digests differ from results/bench.smoke.digests.txt" >&2
    echo "verify: run 'go test -v -run SeqConservation .' first: it names the cell and shard count that moved and prints every Results field" >&2
    exit 1
}
echo "    seven workload digests identical"

echo "==> experiment regeneration (go run ./cmd/experiments vs results/)"
# Every report and CSV series the harness writes is committed and
# regenerates byte-for-byte; a difference or an uncommitted file fails.
scripts/results_gate.sh

echo "==> allocation gate (df4096-heavytail-serial alloc_bytes_per_pkt <= 390 B)"
# The 4096-node cell allocated 798-805 B per delivered packet while opening
# a metapath built temporaries per candidate path, ~640 B while every port
# was two heap objects and every metapath 224 bytes, ~480 B with per-shard
# port slabs, intrusive VC queues and hot/cold metapaths; with 128-byte
# ports, 16-byte VC queues, 192-byte packets that own their contending sets
# and an intrusive event freelist it read ~407 B; with 96-byte ports and
# one-word VC queues it reads ~370 B and repeats to < 1 % across seeds, so
# per-port or per-packet state creeping back in fails here rather than at
# the next re-anchor.
alloc=$(go run ./benchmark -workload df4096-heavytail-serial -seconds 3 2>/dev/null |
    sed -n 's/^e2e df4096-heavytail-serial alloc_bytes_per_pkt \([0-9.]*\) .*/\1/p')
[ -n "$alloc" ] && awk -v a="$alloc" 'BEGIN { exit !(a <= 390) }' || {
    echo "verify: df4096-heavytail-serial allocates ${alloc:-?} B per packet, want <= 390" >&2
    exit 1
}
echo "    alloc_bytes_per_pkt = $alloc"

echo "==> allocation gate (ft64-apps-replay alloc_bytes_per_pkt <= 50 B)"
# Application replay allocated 397 B per delivered packet while traces grew
# by append, collectives were lowered once per call and every replayed
# operation scheduled a closure; a trace is one exact array now and the
# cell read ~91 B while its events were 32-byte structs and reads ~36 B
# since they are encoded records of 3-4 bytes, repeating to 0.01 % across
# seeds.
alloc=$(go run ./benchmark -workload ft64-apps-replay -seconds 3 2>/dev/null |
    sed -n 's/^e2e ft64-apps-replay alloc_bytes_per_pkt \([0-9.]*\) .*/\1/p')
[ -n "$alloc" ] && awk -v a="$alloc" 'BEGIN { exit !(a <= 50) }' || {
    echo "verify: ft64-apps-replay allocates ${alloc:-?} B per packet, want <= 50" >&2
    exit 1
}
echo "    alloc_bytes_per_pkt = $alloc"

echo "==> allocation gate (ft64-bursts-drbfamily alloc_bytes_per_pkt <= 12 B)"
# The paper's headline cell allocated ~36 B per delivered packet while every
# data packet crossing a congested port grew a fresh predictive header,
# ~22 B once packet records owned their contending sets, and ~8.7 B since
# a burst train builds one burst at a time in a reused slab and the
# solution database stores path states by value.
alloc=$(go run ./benchmark -workload ft64-bursts-drbfamily -seconds 3 2>/dev/null |
    sed -n 's/^e2e ft64-bursts-drbfamily alloc_bytes_per_pkt \([0-9.]*\) .*/\1/p')
[ -n "$alloc" ] && awk -v a="$alloc" 'BEGIN { exit !(a <= 12) }' || {
    echo "verify: ft64-bursts-drbfamily allocates ${alloc:-?} B per packet, want <= 12" >&2
    exit 1
}
echo "    alloc_bytes_per_pkt = $alloc"

echo "==> allocation gate (grid64-policy-sweep alloc_bytes_per_pkt <= 170 B)"
# The campaign in miniature builds 128 small fabrics a rep, so the port
# state of every cell is a large share of its bytes: ~185 B per delivered
# packet with 128-byte ports and 16-byte VC queues, ~164 B with 96-byte
# ports and one-word VC queues (drb and fr-drb cells also stopped keeping
# flow evidence and timer records), repeating to 0.01 % across seeds.
alloc=$(go run ./benchmark -workload grid64-policy-sweep -seconds 3 2>/dev/null |
    sed -n 's/^e2e grid64-policy-sweep alloc_bytes_per_pkt \([0-9.]*\) .*/\1/p')
[ -n "$alloc" ] && awk -v a="$alloc" 'BEGIN { exit !(a <= 170) }' || {
    echo "verify: grid64-policy-sweep allocates ${alloc:-?} B per packet, want <= 170" >&2
    exit 1
}
echo "    alloc_bytes_per_pkt = $alloc"

echo "==> telemetry smoke (traced run, schema-validated artifacts)"
teldir=$(mktemp -d)
trap 'rm -rf "$teldir"' EXIT
go build -o "$teldir/prdrbsim" ./cmd/prdrbsim
"$teldir/prdrbsim" -topology mesh-4x4 -policy pr-drb -pattern uniform -rate 200 \
    -duration 400us -trace "$teldir/run.jsonl" -manifest "$teldir/run-manifest.json" \
    >/dev/null 2>&1
"$teldir/prdrbsim" -validate-trace "$teldir/run.jsonl"
"$teldir/prdrbsim" -validate-manifest "$teldir/run-manifest.json"

echo "==> parallel smoke (traced -shards=4 vs serial -shards=1)"
# Same scenario through the serial reference engine and the 4-shard
# conservative-parallel engine: the sharded trace must be schema-valid
# and both runs must deliver the exact same packet count (latency may
# drift a hair — cross-shard credits are pessimistic — but the fabric is
# lossless here, so delivery totals are part of the equivalence contract).
serial_out=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 400 -duration 400us -shards 1)
shard_out=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 400 -duration 400us -shards 4 -trace "$teldir/par.jsonl")
"$teldir/prdrbsim" -validate-trace "$teldir/par.jsonl"
serial_pkts=$(printf '%s\n' "$serial_out" | sed -n 's/.*pkts=\([0-9]*\).*/\1/p')
shard_pkts=$(printf '%s\n' "$shard_out" | sed -n 's/.*pkts=\([0-9]*\).*/\1/p')
[ -n "$serial_pkts" ] && [ "$serial_pkts" = "$shard_pkts" ] || {
    echo "verify: sharded run delivered $shard_pkts pkts, serial delivered $serial_pkts" >&2
    exit 1
}
echo "    shards=4 delivered $shard_pkts pkts == serial"

echo "==> datacenter-scale smoke (4096-node dragonfly, heavy-tail skew)"
# The full df-16-32-8-8 with PR-DRB controllers and skewed heavy-tail
# traffic: assembly plus a short run must fit CI memory (per-router state
# is O(ports), path enumeration is lazy + cached) and stay lossless.
scale_out=$("$teldir/prdrbsim" -topo df-16-32-8-8 -policy pr-drb -heavytail cache \
    -ht-pattern grouplocal -ht-plocal 0.7 -rate 100 -duration 50us -shards 4 -bursts 0)
printf '%s\n' "$scale_out" | grep -q 'accepted=1.000' || {
    echo "verify: 4096-node dragonfly run lost traffic: $scale_out" >&2
    exit 1
}
echo "    $scale_out"

echo "==> collectives smoke (workload -> GOAL schedule -> shard-invariant replay)"
# Convert an AI-training workload to a GOAL dependency-graph schedule,
# replay the schedule, and check the run summary. GOAL replay always runs
# on the serial engine, so -shards 1 and -shards 4 must print the exact
# same summary — byte-identical output is part of the contract.
"$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -workload ai-dp-allreduce -iters 2 \
    -save-goal "$teldir/step.goal" >/dev/null
goal_s1=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -goal "$teldir/step.goal" -shards 1)
goal_s4=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -goal "$teldir/step.goal" -shards 4)
[ "$goal_s1" = "$goal_s4" ] || {
    echo "verify: GOAL replay differs across -shards:" >&2
    printf 'shards=1: %s\nshards=4: %s\n' "$goal_s1" "$goal_s4" >&2
    exit 1
}
printf '%s\n' "$goal_s1" | grep -q 'exec=' || {
    echo "verify: GOAL replay summary missing execution time: $goal_s1" >&2
    exit 1
}
echo "    GOAL replay summary identical at shards=1 and shards=4"

echo "==> observability smoke (-status endpoints + prdrbtrace analytics)"
# A traced sharded run with the live plane up: scrape /metrics and
# /status while the server lingers, validate the exposition with the
# analytics CLI, then run the full report pipeline on the artifacts.
go build -o "$teldir/prdrbtrace" ./cmd/prdrbtrace
"$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 600 -duration 300us -shards 2 -status 127.0.0.1:0 -status-linger 60s \
    -trace "$teldir/obs.jsonl" -manifest "$teldir/obs-manifest.json" \
    >"$teldir/obs.out" 2>"$teldir/obs.err" &
obs_pid=$!
# The run writes its artifacts before lingering; wait for the manifest
# line so the board holds the final snapshot when we scrape.
obs_up=""
i=0
while [ $i -lt 300 ]; do
    if grep -q 'wrote manifest' "$teldir/obs.err" 2>/dev/null; then obs_up=1; break; fi
    if ! kill -0 "$obs_pid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$obs_up" ] || {
    echo "verify: observability run never finished" >&2
    cat "$teldir/obs.err" >&2
    kill "$obs_pid" 2>/dev/null || true
    exit 1
}
status_addr=$(sed -n 's#.*status on http://\([^/]*\)/status.*#\1#p' "$teldir/obs.err")
[ -n "$status_addr" ] || { echo "verify: no status address in stderr" >&2; kill "$obs_pid"; exit 1; }
curl -fsS "http://$status_addr/metrics" >"$teldir/obs-metrics.txt"
curl -fsS "http://$status_addr/status" >"$teldir/obs-status.json"
kill "$obs_pid" 2>/dev/null || true
wait "$obs_pid" 2>/dev/null || true
"$teldir/prdrbtrace" metrics-validate "$teldir/obs-metrics.txt"
# The snapshot must carry both shards' window positions and live totals.
grep -q '"window_end_ns"' "$teldir/obs-status.json" || {
    echo "verify: /status missing per-shard window positions" >&2
    exit 1
}
grep -q '"delivered_pkts"' "$teldir/obs-status.json" || {
    echo "verify: /status missing throughput totals" >&2
    exit 1
}
# One publish per sampling interval (100us by default) plus the closing
# snapshot, not one per window barrier. seq and virtual_ns come from the
# same JSON; the closing snapshot carries the parked horizon clock (load
# end + 1s), which alone would let thousands of publishes through, so the
# bound that bites is taken from the time of the trace's last event.
obs_seq=$(sed -n 's/.*"seq": *\([0-9]*\).*/\1/p' "$teldir/obs-status.json" | head -n 1)
obs_vns=$(sed -n 's/.*"virtual_ns": *\([0-9]*\).*/\1/p' "$teldir/obs-status.json" | head -n 1)
obs_last=$(tail -n 1 "$teldir/obs.jsonl" | sed -n 's/.*"at": *\([0-9]*\).*/\1/p')
[ -n "$obs_seq" ] && [ -n "$obs_vns" ] && [ -n "$obs_last" ] && [ "$obs_seq" -ge 2 ] &&
    [ "$obs_seq" -le $((obs_vns / 100000 + 2)) ] && [ "$obs_seq" -le $((obs_last / 100000 + 2)) ] || {
    echo "verify: /status seq=$obs_seq, virtual_ns=$obs_vns, last traced event at ${obs_last}ns:" \
        "want 2 <= seq <= t/100000 + 2 for both times (publishing per barrier again?)" >&2
    exit 1
}
"$teldir/prdrbtrace" validate -trace "$teldir/obs.jsonl" -manifest "$teldir/obs-manifest.json"
"$teldir/prdrbtrace" report -trace "$teldir/obs.jsonl" -manifest "$teldir/obs-manifest.json" \
    -heatmap-dir "$teldir/obs-heat" >"$teldir/obs-report.txt"
grep -q '## causal decision summary' "$teldir/obs-report.txt" || {
    echo "verify: report missing causal summary" >&2
    exit 1
}
echo "    status scraped from $status_addr (seq=$obs_seq, last event at ${obs_last}ns); exposition, trace and report validated"

echo "==> engine-profiler smoke (-perf artifacts, deterministic-section stability)"
# Two identical-seed 4-shard runs with the profiler on: the Perfetto
# timeline must validate, the run summary must match a profiler-off run
# byte for byte (zero interference), and `prdrbtrace perf -det` must
# render byte-identically across the two runs — wall clock moves, the
# deterministic counters may not.
perf_off=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 400 -duration 400us -shards 4)
perf_a=$("$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 400 -duration 400us -shards 4 \
    -perf "$teldir/perf-a.json" -perf-trace "$teldir/perf.trace.json" 2>/dev/null)
"$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -pattern shuffle \
    -rate 400 -duration 400us -shards 4 -perf "$teldir/perf-b.json" \
    >/dev/null 2>&1
[ "$perf_off" = "$perf_a" ] || {
    echo "verify: -perf changed the run summary:" >&2
    printf 'off: %s\non:  %s\n' "$perf_off" "$perf_a" >&2
    exit 1
}
"$teldir/prdrbtrace" perf -report "$teldir/perf-a.json" -det \
    -trace "$teldir/perf.trace.json" >"$teldir/perf-a.det"
"$teldir/prdrbtrace" perf -report "$teldir/perf-b.json" -det >"$teldir/perf-b.det"
# Strip the trace-validation line (only run A wrote a trace) before
# comparing the deterministic sections.
grep -v '^perf trace:' "$teldir/perf-a.det" >"$teldir/perf-a.det.stripped"
cmp -s "$teldir/perf-a.det.stripped" "$teldir/perf-b.det" || {
    echo "verify: deterministic perf counters differ across identical-seed runs:" >&2
    diff "$teldir/perf-a.det.stripped" "$teldir/perf-b.det" >&2 || true
    exit 1
}
grep -q '^perf trace: .* ok' "$teldir/perf-a.det" || {
    echo "verify: Perfetto perf trace failed validation" >&2
    exit 1
}
# The window-mode counters belong to the deterministic section (so the cmp
# above covers them) and must account for every window.
modes=$(grep '^inline_windows=' "$teldir/perf-b.det") || {
    echo "verify: deterministic perf section carries no window-mode counters" >&2
    exit 1
}
windows=$(sed -n 's/^windows=\([0-9]*\) .*/\1/p' "$teldir/perf-b.det")
inline=$(printf '%s\n' "$modes" | sed -n 's/^inline_windows=\([0-9]*\) .*/\1/p')
released=$(printf '%s\n' "$modes" | sed -n 's/.* released_windows=\([0-9]*\) .*/\1/p')
[ -n "$windows" ] && [ "$((inline + released))" = "$windows" ] || {
    echo "verify: window modes do not add up: windows=$windows, $modes" >&2
    exit 1
}
echo "    -perf run byte-identical to profiler-off; det counters stable ($modes); trace ok"

echo "==> congestion observability smoke (weather map, FCT, flight recorder)"
# A heavy-tailed run with the congestion plane on: the artifact must be
# byte-identical across two identical-seed runs, render through
# 'prdrbtrace congestion' with its CSV side-products, and any anomaly
# flight-recorder dumps must validate. The disabled hot path is gated
# above: TestHotPathZeroAlloc fails if a default build attaches any
# congestion state.
"$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -heavytail websearch \
    -ht-maxflow 65536 -rate 300 -duration 300us -shards 2 \
    -congestion-out "$teldir/cong-a.json" -flight "$teldir/flight-a.jsonl" \
    >/dev/null 2>&1
"$teldir/prdrbsim" -topology ft-4-3 -policy pr-drb -heavytail websearch \
    -ht-maxflow 65536 -rate 300 -duration 300us -shards 2 \
    -congestion-out "$teldir/cong-b.json" \
    >/dev/null 2>&1
cmp -s "$teldir/cong-a.json" "$teldir/cong-b.json" || {
    echo "verify: congestion artifacts differ across identical-seed runs" >&2
    exit 1
}
"$teldir/prdrbtrace" congestion -artifact "$teldir/cong-a.json" \
    -csv-dir "$teldir/cong-csv" >"$teldir/cong-report.txt"
grep -q 'latency attribution' "$teldir/cong-report.txt" || {
    echo "verify: congestion report missing latency attribution" >&2
    exit 1
}
grep -q '^end_us,' "$teldir/cong-csv/class_timeline.csv" || {
    echo "verify: congestion report wrote no class timeline CSV" >&2
    exit 1
}
if [ -s "$teldir/flight-a.jsonl" ]; then
    "$teldir/prdrbtrace" flight-validate "$teldir/flight-a.jsonl"
fi
echo "    congestion artifact deterministic; report + CSVs rendered"

echo "==> checkpoint/resume smoke (four presets + campaign kill/restart)"
# The same smoke the resume-equivalence CI job runs: serial, faulted,
# sharded and heavy-tail dragonfly runs checkpointed at mid-run and resumed
# must print summaries byte-identical to the uninterrupted runs, and a
# SIGINT-killed campaign restart must skip every committed cell.
scripts/resume_smoke.sh

echo "==> verify OK"
