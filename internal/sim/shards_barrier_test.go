package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Stress and equivalence tests for the persistent-worker window loop: the
// epoch/done barrier is hand-rolled, so it is exercised over many tiny
// windows at every worker/shard ratio (W = 1, W < N, W = N) and compared
// record by record with the one-worker run. Windows this small would all
// run inline under the mode rule, so the tests force them released (or
// whatever the case at hand needs) through forceMode.

// Forced window modes.
var (
	allReleased = func(uint64) bool { return true }
	allInline   = func(uint64) bool { return false }
	flipEvery   = func(window uint64) bool { return window%2 == 1 }
)

const (
	stressWindow Time = 100
	stressTokens      = 3
	// Event kinds of the stress workload, logged as fired.
	stressHop    uint8 = 1 // a token arriving over a handoff ring
	stressLocal  uint8 = 2 // a same-shard follow-up of a hop
	stressInject uint8 = 3 // scheduled by a barrier task
)

// firedRec is one executed event as the shard that ran it saw it.
type firedRec struct {
	shard int
	at    Time
	seq   uint64 // the shard engine's Processed count when it fired
	kind  uint8
}

// stressNode is one shard's actor. It owns its log and RNG, so a window
// touches only shard-local state plus the shard's own ring row.
//
// Timestamps never tie on a shard: every delay is a multiple of 4, token k
// lives on times ≡ k (mod 4) and barrier-task injections on ≡ 3 at distinct
// times. Execution order is then independent of *when* a record entered the
// queue, which is what lets a Run sliced off the window grid (an extra
// barrier, hence earlier ring delivery) be compared with an uninterrupted
// one.
type stressNode struct {
	g     *ShardGroup
	shard int
	nodes []*stressNode
	rng   *RNG
	log   []firedRec
}

func (n *stressNode) HandleEvent(e *Engine, kind uint8, arg uint64) {
	n.log = append(n.log, firedRec{n.shard, e.Now(), e.Processed, kind})
	if kind != stressHop || arg == 0 {
		return
	}
	if n.rng.Intn(4) == 0 {
		e.ScheduleEvent(e.Now()+4*Time(1+n.rng.Intn(20)), n, stressLocal, 0)
	}
	shards := n.g.Shards()
	dst := (n.shard + 1 + n.rng.Intn(shards-1)) % shards
	n.g.Send(n.shard, dst, RemoteEvent{
		At:     e.Now() + stressWindow + 4*Time(n.rng.Intn(25)),
		Target: n.nodes[dst],
		Kind:   stressHop,
		Arg:    arg - 1,
	})
}

// stressResult is everything a stress run exposes for comparison.
type stressResult struct {
	logs    [][]firedRec
	stats   []EngineStats
	tasks   []Time // barrier clock at each barrier-task execution
	windows int
	hookSum uint64 // digest of what the OnBarrier hook saw
}

// runStress builds the workload — stressTokens tokens hopping hops times
// each, 200 barrier tasks spread over the expected span (every fourth one
// registering a follow-up task) and an OnBarrier hook that reads group-wide
// state — and executes it under procs with the window modes force dictates,
// slicing Run at the given horizons before draining. Along the way it checks
// the probe protocol, the in-flight bound and the goroutine baseline after
// every Run call.
func runStress(t *testing.T, shards, procs, hops int, horizons []Time, force func(uint64) bool) *stressResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res := &stressResult{}
	g := NewShardGroup(shards, stressWindow)
	g.forceMode = force
	root := NewRNG(uint64(shards)*1_000_003 + uint64(hops))
	nodes := make([]*stressNode, shards)
	for i := range nodes {
		nodes[i] = &stressNode{g: g, shard: i, nodes: nodes, rng: root.Split(uint64(i))}
	}
	for k := 0; k < stressTokens; k++ {
		g.Engines[k%shards].ScheduleEvent(Time(k), nodes[k%shards], stressHop, uint64(hops))
	}
	span := Time(hops) * (stressWindow + 48) // mean hop latency
	taskRNG := root.Split(1 << 32)
	for i := 0; i < 200; i++ {
		at := span * Time(i) / 200
		at += 3 - at%4 // ≡ 3 (mod 4), distinct per task
		target := nodes[taskRNG.Intn(shards)]
		again := i%4 == 0
		g.ScheduleBarrier(at, func() {
			res.tasks = append(res.tasks, g.Now())
			g.Engines[target.shard].ScheduleEvent(at, target, stressInject, 0)
			if again {
				g.ScheduleBarrier(at+2*stressWindow, func() { res.tasks = append(res.tasks, g.Now()) })
			}
		})
	}
	g.OnBarrier(func(winEnd Time) {
		res.windows++
		depth := 0
		for _, d := range g.RingDepths() {
			depth += d
		}
		res.hookSum = res.hookSum*1099511628211 ^ uint64(winEnd) ^ g.Processed()<<20 ^ uint64(depth)<<50
	})
	probe := &recordingProbe{
		shardEvents: make([]uint64, shards),
		shardCalls:  make([]int32, shards),
		shardStarts: make([]int32, shards),
		maxInFlight: int32(min(procs, shards)),
		fail:        t.Errorf,
	}
	g.SetProbe(probe)

	baseline := runtime.NumGoroutine()
	for _, h := range horizons {
		g.Run(h)
		waitGoroutines(t, baseline)
	}
	g.RunAll()
	waitGoroutines(t, baseline)
	if probe.windows != res.windows || probe.windows != probe.ends {
		t.Errorf("probe saw %d windows (%d ends), hook saw %d", probe.windows, probe.ends, res.windows)
	}
	for _, n := range nodes {
		res.logs = append(res.logs, n.log)
	}
	res.stats = g.Stats()
	return res
}

// waitGoroutines waits for the goroutine count to fall back to baseline: a
// worker that Run has already waited for may still be between its final
// WaitGroup.Done and its exit.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Run, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestShardGroupBarrierStress runs over 100k one-to-three-event windows,
// spread over every shard count × worker count, and requires the fired logs,
// engine stats, barrier-task clocks and hook observations of each cell to
// equal the one-worker run exactly. (The size is what the race detector
// affords ten times over on a 2-CPU host; see scripts/verify.sh.)
func TestShardGroupBarrierStress(t *testing.T) {
	const hops = 6_000 // ≈ 1.48 windows a hop, the tokens hop side by side: ≈ 8.8k windows a cell
	windows := 0
	for _, shards := range []int{2, 3, 4, 7} {
		ref := runStress(t, shards, 1, hops, nil, allReleased)
		windows += ref.windows
		var events uint64
		for _, st := range ref.stats {
			events += st.Processed
		}
		if per := float64(events) / float64(ref.windows); per < 1 || per > 3 {
			t.Fatalf("shards=%d: %.2f events per window, want one to three", shards, per)
		}
		for _, procs := range []int{2, 4} {
			windows += ref.windows
			t.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(t *testing.T) {
				got := runStress(t, shards, procs, hops, nil, allReleased)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("run differs from GOMAXPROCS=1: %s", stressDiff(got, ref))
				}
			})
		}
	}
	if windows < 100_000 {
		t.Fatalf("the matrix covered only %d windows", windows)
	}
}

// stressDiff names the first difference between two stress results.
func stressDiff(got, ref *stressResult) string {
	if got.windows != ref.windows || got.hookSum != ref.hookSum {
		return fmt.Sprintf("windows %d vs %d, hook digest %x vs %x", got.windows, ref.windows, got.hookSum, ref.hookSum)
	}
	if !reflect.DeepEqual(got.tasks, ref.tasks) {
		return "barrier-task clocks differ"
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		return fmt.Sprintf("stats %+v vs %+v", got.stats, ref.stats)
	}
	for s := range ref.logs {
		for i := range ref.logs[s] {
			if i >= len(got.logs[s]) || got.logs[s][i] != ref.logs[s][i] {
				return fmt.Sprintf("shard %d record %d: want %+v", s, i, ref.logs[s][i])
			}
		}
		if len(got.logs[s]) != len(ref.logs[s]) {
			return fmt.Sprintf("shard %d fired %d events, want %d", s, len(got.logs[s]), len(ref.logs[s]))
		}
	}
	return "no field differs"
}

// TestShardGroupSlicedRun pins that Run may be called repeatedly: slicing
// the timeline at 19 horizons — on and off the window grid — fires the same
// events in the same per-shard order as one uninterrupted Run, at every
// worker count. (Barrier counts legitimately differ: a horizon off the grid
// adds a barrier.)
func TestShardGroupSlicedRun(t *testing.T) {
	const hops = 1_000
	var horizons []Time
	for i := 1; i <= 19; i++ {
		h := Time(i) * 75 * stressWindow
		if i%2 == 0 {
			h += Time(7 * i) // off the grid
		}
		horizons = append(horizons, h)
	}
	for _, shards := range []int{2, 3, 4, 7} {
		ref := runStress(t, shards, 1, hops, nil, allReleased)
		for _, procs := range []int{1, 2, 4} {
			got := runStress(t, shards, procs, hops, horizons, allReleased)
			if !reflect.DeepEqual(got.logs, ref.logs) {
				t.Fatalf("shards=%d procs=%d: sliced run differs: %s", shards, procs,
					stressDiff(&stressResult{logs: got.logs}, &stressResult{logs: ref.logs}))
			}
		}
	}
}

// bomb panics when it fires.
type bomb struct{ msg string }

func (b *bomb) HandleEvent(*Engine, uint8, uint64) { panic(b.msg) }

// TestShardGroupWorkerPanic pins panic propagation: a handler panic — on a
// worker goroutine in a released window, on the coordinator in an inline
// one — surfaces as a panic of Run on the caller, names the lowest panicking
// shard whatever the mode and the worker count, and leaves no goroutine
// behind; the coordinator-side lookahead panic keeps its message and also
// stops the workers.
func TestShardGroupWorkerPanic(t *testing.T) {
	runAndRecover := func(g *ShardGroup) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		g.RunAll()
		return "Run returned"
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			baseline := runtime.NumGoroutine()

			for _, mode := range []struct {
				name  string
				force func(uint64) bool
			}{{"released", allReleased}, {"inline", allInline}, {"flipping", flipEvery}} {
				name := mode.name
				g := NewShardGroup(4, 100)
				g.forceMode = mode.force
				var log []string
				a := &pingActor{g: g, shard: 0, latency: 100, log: &log, hops: 1000}
				b := &pingActor{g: g, shard: 1, latency: 100, log: &log, hops: 1000}
				a.peer, b.peer = b, a
				g.Engines[0].ScheduleEvent(0, a, 0, 0)
				// Shards 3 and 2 blow up in the same window, 50 windows in.
				g.Engines[3].ScheduleEvent(5010, &bomb{"boom-three"}, 0, 0)
				g.Engines[2].ScheduleEvent(5020, &bomb{"boom-two"}, 0, 0)
				msg := runAndRecover(g)
				if !strings.Contains(msg, "shard 2") || !strings.Contains(msg, "boom-two") {
					t.Errorf("%s: panic does not name shard 2 and its value: %.200q", name, msg)
				}
				if !strings.Contains(msg, "(*bomb).HandleEvent") {
					t.Errorf("%s: panic carries no stack of the panicking handler: %.400q", name, msg)
				}
				waitGoroutines(t, baseline)
			}

			g := NewShardGroup(2, 100)
			g.forceMode = allReleased
			var log []string
			a := &pingActor{g: g, shard: 0, latency: 10, log: &log, hops: 3} // latency < window
			b := &pingActor{g: g, shard: 1, latency: 10, log: &log, hops: 3}
			a.peer, b.peer = b, a
			g.Engines[0].ScheduleEvent(0, a, 0, 0)
			if msg := runAndRecover(g); !strings.HasPrefix(msg, "sim: lookahead violation") {
				t.Errorf("lookahead panic message changed: %.200q", msg)
			}
			waitGoroutines(t, baseline)
		})
	}
}
