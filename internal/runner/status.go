package runner

import (
	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// Live status sampling. The observability plane never reads simulation
// state from the HTTP goroutine: a sampler actor scheduled on the engine
// evaluates everything at deterministic virtual-time intervals — on the
// goroutine that owns the state — and publishes plain-data snapshots into
// a telemetry.Board the status server reads.
//
// Serial mode: one tickActor on the engine collects the full status each
// tick. Sharded mode splits the work along the ownership boundary:
// a per-shard sampler actor records that shard's window position
// (shard-local engine state plus the group's window bounds, which the
// coordinator writes before releasing the window to its workers —
// race-free by the release's atomic happens-before), and a group barrier
// hook — where every shard is quiescent — assembles the group-level
// snapshot: network totals, controller state, ring depths, registry
// metrics.
//
// A simulation built without a board schedules no sampler events and
// touches none of this code: disabled observability is exactly free, and
// fixed-seed results stay byte-identical.

// DefaultStatus, when set, attaches a live-status sampler publishing into
// this board to every simulation built without an explicit attach — the
// -status analogue of DefaultTelemetry. The CLIs set it alongside the
// status server.
var DefaultStatus *telemetry.Board

// DefaultLive, when set, receives cross-goroutine progress updates
// (events executed, virtual time) from every simulation. Atomic counters;
// safe to share across parallel experiment workers.
var DefaultLive *telemetry.LiveStats

// DefaultStatusEvery overrides the virtual-time sampling interval used
// with DefaultStatus; 0 selects the 100µs default.
var DefaultStatusEvery sim.Time

// defaultStatusInterval is the sampling cadence when none is given: 100µs
// of virtual time, ~20 samples over a typical millisecond-scale run.
const defaultStatusInterval sim.Time = 100_000

// statusState is the per-simulation sampling state.
type statusState struct {
	sim      *Sim
	board    *telemetry.Board
	interval sim.Time
	// shardStats holds one slot per shard, written by that shard's
	// sampler during windows and read only at barriers.
	shardStats []telemetry.ShardStatus
	samplers   []*shardSampler
}

// AttachStatus wires a live-status sampler publishing into board every
// `every` nanoseconds of virtual time (0 selects the default). Must be
// called before the simulation runs. No-op on a nil board.
func (s *Sim) AttachStatus(board *telemetry.Board, every sim.Time) {
	if board == nil {
		return
	}
	if every <= 0 {
		every = defaultStatusInterval
	}
	st := &statusState{sim: s, board: board, interval: every}
	s.status = st
	if g := s.Net.Group(); g != nil {
		st.shardStats = make([]telemetry.ShardStatus, g.Shards())
		for i := range st.shardStats {
			st.shardStats[i].Shard = i
		}
		st.samplers = make([]*shardSampler, g.Shards())
		for i, e := range g.Engines {
			sam := &shardSampler{st: st, g: g, idx: i, armed: true}
			st.samplers[i] = sam
			e.ScheduleEvent(every, sam, 0, 0)
		}
		g.OnBarrier(st.onBarrier)
		return
	}
	(&tickActor{every: every, fn: st.sampleSerial}).start(s.Eng)
}

// tickActor is the serial-engine sampler actor both observability planes
// share: it runs fn on the engine's goroutine every `every` of virtual
// time and re-arms only while other work remains, so a draining engine
// still terminates.
type tickActor struct {
	every sim.Time
	fn    func(*sim.Engine)
}

// start schedules the first tick one interval from now.
func (t *tickActor) start(e *sim.Engine) { e.ScheduleEvent(e.Now()+t.every, t, 0, 0) }

// HandleEvent implements sim.Actor.
func (t *tickActor) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	t.fn(e)
	if e.Len() > 0 {
		e.AfterEvent(t.every, t, 0, 0)
	}
}

// sampleSerial collects and publishes the full snapshot of a serial run.
func (st *statusState) sampleSerial(e *sim.Engine) {
	now := e.Now()
	status := st.sim.collectStatus(int64(now))
	status.Shards = []telemetry.ShardStatus{{
		Shard: 0,
		AtNs:  int64(now),
		// The serial engine has no barrier windows; the degenerate window
		// [at, at] keeps the start <= at <= end invariant trivially true.
		WindowStartNs: int64(now),
		WindowEndNs:   int64(now),
		Processed:     e.Processed,
		Pending:       e.Len(),
	}}
	status.EventsProcessed = e.Processed
	status.Perf = st.sim.perf.Snapshot()
	st.board.PublishStatus(status)
	st.sim.publishMetrics(st.board)
	st.sim.syncLive(int64(e.Processed), int64(now))
}

// shardSampler records one shard's window position. It runs on the shard
// engine during windows and touches only shard-owned state plus the
// group's window bounds (written before the window is released).
type shardSampler struct {
	st    *statusState
	g     *sim.ShardGroup
	idx   int
	armed bool
}

// HandleEvent implements sim.Actor.
func (ss *shardSampler) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	start, end := ss.g.CurrentWindow()
	ss.st.shardStats[ss.idx] = telemetry.ShardStatus{
		Shard:         ss.idx,
		AtNs:          int64(e.Now()),
		WindowStartNs: int64(start),
		WindowEndNs:   int64(end),
		Processed:     e.Processed,
		Pending:       e.Len(),
	}
	if e.Len() > 0 {
		e.AfterEvent(ss.st.interval, ss, 0, 0)
	} else {
		ss.armed = false
	}
}

// onBarrier assembles and publishes the group-level snapshot. It runs
// single-threaded at every window barrier with all shards quiescent, so
// cross-shard reads (network totals, controllers, registry gauges, ring
// depths — sampled before the flush empties them) are race-free.
func (st *statusState) onBarrier(winEnd sim.Time) {
	g := st.sim.Net.Group()
	// Re-arm samplers that ran out of local work mid-window but whose
	// shard has pending events again.
	for i, sam := range st.samplers {
		if !sam.armed && g.Engines[i].Len() > 0 {
			g.Engines[i].ScheduleEvent(winEnd+st.interval, sam, 0, 0)
			sam.armed = true
		}
	}
	processed := g.Processed()
	status := st.sim.collectStatus(int64(winEnd))
	status.EventsProcessed = processed
	status.Shards = append([]telemetry.ShardStatus(nil), st.shardStats...)
	status.RingDepths = g.RingDepths()
	// The profiler's BarrierStart ran before these hooks, so its
	// aggregates already cover the window that just closed.
	status.Perf = st.sim.perf.Snapshot()
	st.board.PublishStatus(status)
	st.sim.publishMetrics(st.board)
	st.sim.syncLive(int64(processed), int64(winEnd))
}

// collectStatus evaluates the simulation-wide status fields. Callers must
// hold the quiescence this package's samplers guarantee.
func (s *Sim) collectStatus(virtualNs int64) telemetry.Status {
	offered, delivered, dropped := s.Net.ThroughputTotals()
	down, degraded := s.Net.LinkHealthCounts()
	openMPs, extra := core.OpenPathCounts(s.Controllers)
	return telemetry.Status{
		VirtualNs:      virtualNs,
		OfferedPkts:    offered,
		DeliveredPkts:  delivered,
		DroppedPkts:    dropped,
		InFlightPkts:   s.Net.InFlightPkts(),
		FailedLinks:    down,
		DegradedLinks:  degraded,
		OpenMetapaths:  openMPs,
		OpenExtraPaths: extra,
		QueuedBytes:    int64(s.Net.TotalQueuedBytes()),
	}
}

// publishMetrics snapshots the registry (scalars and histograms) into the
// board for /metrics. No-op without telemetry.
func (s *Sim) publishMetrics(board *telemetry.Board) {
	if s.Telemetry == nil {
		return
	}
	board.PublishMetrics(s.Telemetry.Registry.Snapshot(), s.Telemetry.Registry.SnapshotHistograms())
}

// syncLive folds progress into the cross-goroutine feed: the delta of
// executed events since the last sync and the latest virtual clock. All
// call sites run on (or happen-after) the simulation's driving goroutine,
// so lastLiveEvents needs no synchronization.
func (s *Sim) syncLive(processed, virtualNs int64) {
	if s.live == nil {
		return
	}
	s.live.AddEvents(processed - s.lastLiveEvents)
	s.lastLiveEvents = processed
	s.live.SetVirtual(virtualNs)
}

// Processed returns the cumulative executed-event count across shards.
// Only meaningful when the simulation is not mid-window (between Execute
// calls, or from sampler/barrier context).
func (s *Sim) Processed() uint64 {
	var n uint64
	for _, sh := range s.Net.Shards {
		n += sh.Eng.Processed
	}
	return n
}

// histSnapshotFn adapts a per-collector histogram selector into a
// registry reader that merges across shards on demand (the serial network
// has exactly one collector, so the merge is a copy).
func (s *Sim) histSnapshotFn(get func(c *metrics.Collector) *metrics.Histogram) func() telemetry.HistSnapshot {
	net := s.Net
	return func() telemetry.HistSnapshot {
		h := metrics.NewHistogram()
		for _, c := range net.ShardCollectors() {
			if c != nil {
				h.Merge(get(c))
			}
		}
		bounds, counts, total, sum := h.Export()
		return telemetry.HistSnapshot{Bounds: bounds, Counts: counts, Count: total, Sum: sum}
	}
}
