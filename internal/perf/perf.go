// Package perf is the wall-clock engine profiler: it measures where real
// time goes inside the simulator — per-shard window execution, barrier
// waits (the imbalance cost), barrier tasks, OnBarrier hooks and the
// cross-shard ring flush — and aggregates the answer into a Report with
// per-shard imbalance ratios, window-time histograms and an effective
// speedup estimate.
//
// The profiler attaches to a sim.ShardGroup through the GroupProbe hook
// (sim itself never reads the wall clock, keeping simulation results a
// pure function of configuration and seed) and to serial engines by
// bracketing Execute calls. Disabled profiling is exactly free: the sim
// hot path pays one nil pointer comparison per *window* (not per event),
// and fixed-seed summaries stay byte-identical with the profiler on or
// off — pinned by test.
//
// Determinism taxonomy, which the renderer and prdrbtrace honor: event
// counts, window counts, window-mode counts (inline, released, flips),
// remote-record counts and far-heap overflow/migration counts are pure
// functions of (configuration, seed, shard count); every *Ns field and
// everything derived from one (rates, fractions, speedups, histograms) is
// wall-derived and varies run to run.
package perf

import (
	"time"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// maxTraceSpans bounds retained per-window spans so a long traced run
// cannot grow memory without bound (~200 B/window; the cap is ~30 MB of
// trace JSON). Windows beyond the cap still aggregate into the report;
// the drop count is recorded so truncation is never silent.
const maxTraceSpans = 200_000

// Options configures a Profiler.
type Options struct {
	// Trace retains per-window spans for the Perfetto timeline
	// (WriteTrace). Aggregation happens either way.
	Trace bool
}

// ShardSpan is one shard's share of a traced window: it executed Events
// events for BusyNs from wall offset StartNs (from the profiler's origin).
type ShardSpan struct {
	StartNs int64
	BusyNs  int64
	Events  uint64
}

// WindowSpan is one traced barrier window. All *Ns offsets are wall
// nanoseconds relative to the profiler's origin (first RunStart).
type WindowSpan struct {
	StartNs   int64 // WindowStart: engines align, barrier tasks run
	ExecNs    int64 // shard execution begins
	BarrierNs int64 // all shards joined; OnBarrier hooks run
	FlushNs   int64 // ring flush begins
	EndNs     int64 // window closed
	// VStartNs/VEndNs are the window's *virtual* bounds, attached as span
	// args so wall and virtual time can be correlated in the viewer.
	VStartNs int64
	VEndNs   int64
	Remote   int
	Shards   []ShardSpan
}

// Profiler accumulates wall-clock accounting across one or more runs.
//
// Concurrency: ShardStart and ShardDone are the only methods invoked off
// the coordinator goroutine; they touch only their shard's slot in
// startWall/doneWall/doneEvents (distinct elements, ordered against the
// coordinator by the group's window release/join atomics). Everything else —
// including Snapshot and Report — must run on the coordinator goroutine
// or happen-after the run, which is exactly the contract of barrier
// hooks, sampler actors and post-Execute artifact writers.
type Profiler struct {
	opts Options

	// origin anchors trace timestamps; set at the first RunStart.
	origin    time.Time
	originSet bool

	// Current bind: sharded or serial, and the live shard count.
	sharded   bool
	curShards int
	statsFn   func() []sim.EngineStats
	lastStats []sim.EngineStats
	// modesFn reads the bound group's window-mode counters (nil for serial
	// binds); lastModes is the reading already folded into modes.
	modesFn   func() sim.WindowModes
	lastModes sim.WindowModes

	running  bool
	runStart time.Time
	wallNs   int64

	// Per-window marks (coordinator), plus per-shard start/done marks
	// written concurrently by the window loop's workers.
	winStartWall time.Time
	execWall     time.Time
	barrierWall  time.Time
	flushWall    time.Time
	vStart, vEnd sim.Time
	startWall    []time.Time
	doneWall     []time.Time
	doneEvents   []uint64

	// Aggregates. Per-shard slices are sized to the widest bind seen.
	windows                 uint64
	modes                   sim.WindowModes
	ctrlNs, hookNs, flushNs int64
	remote                  uint64
	busyNs, idleNs          []int64
	events                  []uint64
	farOverflows            []uint64
	farMigrations           []uint64
	cascades                []uint64
	slotWalks               []uint64
	winHist                 []*metrics.Histogram

	spans        []WindowSpan
	droppedSpans int
	// spanOpen marks that the current window opened a span (tracing on
	// and under the cap), so FlushStart/WindowEnd may fill it in.
	spanOpen bool
}

// New returns an idle profiler. A nil *Profiler is inert: every method
// no-ops, mirroring the telemetry handles.
func New(opts Options) *Profiler { return &Profiler{opts: opts} }

// grow ensures per-shard aggregate slices cover n shards.
func (p *Profiler) grow(n int) {
	for len(p.busyNs) < n {
		p.busyNs = append(p.busyNs, 0)
		p.idleNs = append(p.idleNs, 0)
		p.events = append(p.events, 0)
		p.farOverflows = append(p.farOverflows, 0)
		p.farMigrations = append(p.farMigrations, 0)
		p.cascades = append(p.cascades, 0)
		p.slotWalks = append(p.slotWalks, 0)
		p.winHist = append(p.winHist, metrics.NewHistogram())
	}
	for len(p.doneWall) < n {
		p.startWall = append(p.startWall, time.Time{})
		p.doneWall = append(p.doneWall, time.Time{})
		p.doneEvents = append(p.doneEvents, 0)
	}
}

// BindGroup attaches the profiler to a shard group's window/barrier loop.
// Call before the group runs (or at a barrier). Rebinding to a new group
// (a sweep reusing one profiler) accumulates into the same aggregates.
func (p *Profiler) BindGroup(g *sim.ShardGroup) {
	if p == nil || g == nil {
		return
	}
	p.sharded = true
	p.curShards = g.Shards()
	p.grow(p.curShards)
	p.statsFn = g.Stats
	p.lastStats = nil
	p.modesFn = g.WindowModes
	p.lastModes = g.WindowModes()
	g.SetProbe(p)
}

// BindSerial attaches the profiler to a serial-engine simulation: Execute
// wall time is attributed to pseudo-shard 0 and engine counters (events,
// far-heap stats) are folded at RunEnd. statsFn must be quiescent-safe.
func (p *Profiler) BindSerial(statsFn func() []sim.EngineStats) {
	if p == nil {
		return
	}
	p.sharded = false
	p.curShards = 1
	p.grow(1)
	p.statsFn = statsFn
	p.lastStats = nil
	p.modesFn = nil
}

// RunStart opens a wall-clock segment around an Execute call. Nested or
// repeated opens are idempotent.
func (p *Profiler) RunStart() {
	if p == nil || p.running {
		return
	}
	if !p.originSet {
		p.origin = time.Now()
		p.originSet = true
	}
	p.running = true
	p.runStart = time.Now()
}

// RunEnd closes the segment opened by RunStart, folding wall time and the
// engines' deterministic counters (processed deltas for serial binds,
// far-heap overflow/migration deltas always) into the aggregates.
func (p *Profiler) RunEnd() {
	if p == nil || !p.running {
		return
	}
	seg := time.Since(p.runStart).Nanoseconds()
	p.wallNs += seg
	p.running = false
	if p.statsFn != nil {
		stats := p.statsFn()
		p.grow(len(stats))
		for i, st := range stats {
			var last sim.EngineStats
			if i < len(p.lastStats) {
				last = p.lastStats[i]
			}
			p.farOverflows[i] += st.FarOverflows - last.FarOverflows
			p.farMigrations[i] += st.FarMigrations - last.FarMigrations
			p.cascades[i] += st.Cascades - last.Cascades
			p.slotWalks[i] += st.SlotWalks - last.SlotWalks
			if !p.sharded {
				// Sharded event counts arrive per window via ShardDone;
				// serial ones only exist as the engine's cumulative counter.
				p.events[i] += st.Processed - last.Processed
			}
		}
		p.lastStats = stats
	}
	if p.modesFn != nil {
		m := p.modesFn()
		p.modes.Inline += m.Inline - p.lastModes.Inline
		p.modes.Released += m.Released - p.lastModes.Released
		p.modes.Flips += m.Flips - p.lastModes.Flips
		p.lastModes = m
	}
	if !p.sharded {
		p.busyNs[0] += seg
	}
}

// sinceOrigin converts a wall timestamp to a trace offset.
func (p *Profiler) sinceOrigin(t time.Time) int64 { return t.Sub(p.origin).Nanoseconds() }

// WindowStart implements sim.GroupProbe.
func (p *Profiler) WindowStart(winStart, winEnd sim.Time) {
	p.winStartWall = time.Now()
	p.vStart, p.vEnd = winStart, winEnd
}

// WindowExec implements sim.GroupProbe.
func (p *Profiler) WindowExec() {
	p.execWall = time.Now()
	p.ctrlNs += p.execWall.Sub(p.winStartWall).Nanoseconds()
}

// ShardStart implements sim.ShardStartProbe. Safe concurrently across
// shards: each call touches only its own slot.
func (p *Profiler) ShardStart(shard int) {
	p.startWall[shard] = time.Now()
}

// ShardDone implements sim.GroupProbe. Safe concurrently across shards:
// each call touches only its own slot.
func (p *Profiler) ShardDone(shard int, events uint64) {
	p.doneWall[shard] = time.Now()
	p.doneEvents[shard] = events
}

// BarrierStart implements sim.GroupProbe: all shards have joined, so the
// per-shard marks are visible and the window's busy/idle split is final.
// Busy is the shard's own start → done; idle is the rest of the exec
// phase (exec-start → barrier): the shard's wait for its turn on a worker
// that runs several shards back to back, plus that worker's wait — spent
// polling the barrier, not parked — for the slowest worker, the imbalance
// cost. Σ busy therefore never exceeds W × the exec phase, W =
// min(GOMAXPROCS, shards) being the workers of the window loop.
func (p *Profiler) BarrierStart(winEnd sim.Time) {
	now := time.Now()
	p.barrierWall = now
	p.windows++
	var span *WindowSpan
	if p.opts.Trace {
		if len(p.spans) < maxTraceSpans {
			p.spans = append(p.spans, WindowSpan{
				StartNs:  p.sinceOrigin(p.winStartWall),
				ExecNs:   p.sinceOrigin(p.execWall),
				VStartNs: int64(p.vStart),
				VEndNs:   int64(p.vEnd),
				Shards:   make([]ShardSpan, p.curShards),
			})
			span = &p.spans[len(p.spans)-1]
			span.BarrierNs = p.sinceOrigin(now)
		} else {
			p.droppedSpans++
		}
		p.spanOpen = span != nil
	}
	exec := now.Sub(p.execWall).Nanoseconds()
	for i := 0; i < p.curShards; i++ {
		// Monotonic readings nested exec ≤ start ≤ done ≤ now: both ≥ 0.
		busy := p.doneWall[i].Sub(p.startWall[i]).Nanoseconds()
		idle := exec - busy
		p.busyNs[i] += busy
		p.idleNs[i] += idle
		p.events[i] += p.doneEvents[i]
		p.winHist[i].Observe(sim.Time(busy))
		if span != nil {
			span.Shards[i] = ShardSpan{StartNs: p.sinceOrigin(p.startWall[i]), BusyNs: busy, Events: p.doneEvents[i]}
		}
	}
}

// FlushStart implements sim.GroupProbe.
func (p *Profiler) FlushStart() {
	p.flushWall = time.Now()
	p.hookNs += p.flushWall.Sub(p.barrierWall).Nanoseconds()
	if span := p.curSpan(); span != nil {
		span.FlushNs = p.sinceOrigin(p.flushWall)
	}
}

// WindowEnd implements sim.GroupProbe.
func (p *Profiler) WindowEnd(remoteRecords int) {
	now := time.Now()
	p.flushNs += now.Sub(p.flushWall).Nanoseconds()
	p.remote += uint64(remoteRecords)
	if span := p.curSpan(); span != nil {
		span.EndNs = p.sinceOrigin(now)
		span.Remote = remoteRecords
	}
}

// curSpan returns the span opened by the current window's BarrierStart,
// or nil when tracing is off or the cap was hit.
func (p *Profiler) curSpan() *WindowSpan {
	if !p.spanOpen || len(p.spans) == 0 {
		return nil
	}
	return &p.spans[len(p.spans)-1]
}

// curWallNs is the accumulated wall time including a still-open segment
// (for live snapshots taken mid-run from barrier hooks).
func (p *Profiler) curWallNs() int64 {
	w := p.wallNs
	if p.running {
		w += time.Since(p.runStart).Nanoseconds()
	}
	return w
}

// totals sums per-shard busy/idle/events over the bound shard range.
func (p *Profiler) totals() (busy, idle int64, events uint64) {
	for i := range p.busyNs {
		busy += p.busyNs[i]
		idle += p.idleNs[i]
		events += p.events[i]
	}
	return busy, idle, events
}

// imbalance is max per-shard busy over the mean (1 = perfectly
// balanced). Shards that never ran don't count toward the mean.
func (p *Profiler) imbalance() float64 {
	var max, sum int64
	n := 0
	for _, b := range p.busyNs {
		if b <= 0 {
			continue
		}
		if b > max {
			max = b
		}
		sum += b
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return float64(max) * float64(n) / float64(sum)
}

// RegisterMetrics wires the profiler's live view into a registry:
// perf.* gauges for the run-level breakdown, per-shard busy/idle/event
// gauges and per-shard window-execution-time histograms. Call after the
// bind so the shard count is known. Reader callbacks evaluate on the
// coordinator goroutine (barrier publish or post-run snapshot) — the
// same quiescence contract the engine gauges follow.
func (p *Profiler) RegisterMetrics(r *telemetry.Registry) {
	if p == nil || r == nil {
		return
	}
	r.Gauge("perf.windows", func() int64 { return int64(p.windows) })
	r.Gauge("perf.remote_records", func() int64 { return int64(p.remote) })
	r.Gauge("perf.wall_ns", p.curWallNs)
	r.Gauge("perf.ctrl_ns", func() int64 { return p.ctrlNs })
	r.Gauge("perf.hook_ns", func() int64 { return p.hookNs })
	r.Gauge("perf.flush_ns", func() int64 { return p.flushNs })
	r.Gauge("perf.imbalance_pct", func() int64 { return int64(p.imbalance() * 100) })
	r.Gauge("perf.idle_pct", func() int64 {
		busy, idle, _ := p.totals()
		if busy+idle == 0 {
			return 0
		}
		return int64(float64(idle) / float64(busy+idle) * 100)
	})
	for i := 0; i < p.curShards; i++ {
		i := i
		r.Gauge(shardMetric("perf.shard%d.busy_ns", i), func() int64 { return p.busyNs[i] })
		r.Gauge(shardMetric("perf.shard%d.idle_ns", i), func() int64 { return p.idleNs[i] })
		r.Gauge(shardMetric("perf.shard%d.events", i), func() int64 { return int64(p.events[i]) })
		r.Histogram(shardMetric("perf.window_exec_ns.shard%d", i), func() telemetry.HistSnapshot {
			bounds, counts, total, sum := p.winHist[i].Export()
			return telemetry.HistSnapshot{Bounds: bounds, Counts: counts, Count: total, Sum: sum}
		})
	}
}

// Snapshot assembles the live telemetry.PerfStatus for /status. Same
// goroutine contract as RegisterMetrics' readers.
func (p *Profiler) Snapshot() *telemetry.PerfStatus {
	if p == nil {
		return nil
	}
	busy, idle, _ := p.totals()
	st := &telemetry.PerfStatus{
		Windows:          p.windows,
		WallNs:           p.curWallNs(),
		CtrlNs:           p.ctrlNs,
		HookNs:           p.hookNs,
		FlushNs:          p.flushNs,
		RemoteRecords:    p.remote,
		ImbalanceRatio:   p.imbalance(),
		EffectiveSpeedup: speedup(busy, p.curWallNs()),
	}
	if busy+idle > 0 {
		st.IdleFraction = float64(idle) / float64(busy+idle)
	}
	for i := 0; i < p.curShards; i++ {
		st.Shards = append(st.Shards, telemetry.PerfShardStatus{
			Shard:        i,
			Events:       p.events[i],
			BusyNs:       p.busyNs[i],
			IdleNs:       p.idleNs[i],
			EventsPerSec: rate(p.events[i], p.busyNs[i]),
			WindowP50Ns:  p.winHist[i].Quantile(0.5),
			WindowP99Ns:  p.winHist[i].Quantile(0.99),
		})
	}
	return st
}

func speedup(busy, wall int64) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(busy) / float64(wall)
}

func rate(events uint64, busyNs int64) float64 {
	if busyNs <= 0 {
		return 0
	}
	return float64(events) / (float64(busyNs) / 1e9)
}
