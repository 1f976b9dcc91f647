package runner

import (
	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// Quiescent-point sampling. The observability planes never read simulation
// state from the HTTP goroutine, and never from a goroutine that does not
// own it: sampleEvery runs a body once per period of virtual time at a
// point where every engine is quiescent — on the serial engine's own
// goroutine, or at a shard group's window barrier — and the body publishes
// plain-data snapshots into a telemetry.Board the status server reads.
// The live-status plane (below) and the congestion plane (congestion.go)
// each pass one body and share this one cadence rule.
//
// A simulation built without a board attaches no sampler and touches none
// of this code: disabled observability is exactly free, and fixed-seed
// results stay byte-identical. On a sharded run an attached sampler is
// free of side effects too — it schedules no events, so event counts and
// the window-mode sequence equal the unobserved run's.

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

// sampleEvery runs fn at quiescent points one period of virtual time
// apart, the first one period after the current time. It is the only place
// the samplers fork on the engine kind. Serial: a tickActor fires exactly
// on the period grid. Sharded: barriers land on the lookahead grid, so fn
// runs at the first barrier at or past each grid point — on the
// coordinator, single-threaded, with every shard synchronized at winEnd
// and the cross-shard rings not yet flushed — and a barrier that skipped
// several grid points samples once.
func (s *Sim) sampleEvery(period sim.Time, fn func(now sim.Time)) {
	g := s.Net.Group()
	if g == nil {
		s.Eng.ScheduleEvent(s.Eng.Now()+period, &tickActor{every: period, fn: fn}, 0, 0)
		return
	}
	next := g.Now() + period
	g.OnBarrier(func(winEnd sim.Time) {
		if winEnd < next {
			return
		}
		fn(winEnd)
		for next <= winEnd {
			next += period
		}
	})
}

// tickActor is sampleEvery on the serial engine: it runs fn on the
// engine's goroutine every `every` of virtual time and re-arms only while
// other work remains, so a draining engine still terminates.
type tickActor struct {
	every sim.Time
	fn    func(now sim.Time)
}

// HandleEvent implements sim.Actor.
func (t *tickActor) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	t.fn(e.Now())
	if e.Len() > 0 {
		e.AfterEvent(t.every, t, 0, 0)
	}
}

// AttachStatus wires a live-status sampler publishing into board every
// `every` nanoseconds of virtual time (0 selects the default), starting
// one interval after the current time; Execute adds a closing snapshot.
// Must be called before the simulation runs. No-op on a nil board.
func (s *Sim) AttachStatus(board *telemetry.Board, every sim.Time) {
	if board == nil {
		return
	}
	if every <= 0 {
		every = defaultStatusInterval
	}
	s.status = board
	s.sampleEvery(every, s.sampleStatus)
}

// sampleStatus collects and publishes the full snapshot at the quiescent
// point now: network totals, controller state, one row per shard (ring
// depths too when sharded — sampled before the flush empties them), and
// the registry's scalars and histograms for /metrics.
func (s *Sim) sampleStatus(now sim.Time) {
	offered, delivered, dropped := s.Net.ThroughputTotals()
	down, degraded := s.Net.LinkHealthCounts()
	openMPs, extra := core.OpenPathCounts(s.Controllers)
	status := telemetry.Status{
		VirtualNs:      int64(now),
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
	// A serial engine has no barrier windows, and after Execute a shard
	// group is parked at the horizon, past its last window: both report the
	// degenerate window [now, now], which keeps start <= at <= end true.
	start, end := now, now
	if g := s.Net.Group(); g != nil {
		if ws, we := g.CurrentWindow(); we == now {
			start, end = ws, we
		}
		status.RingDepths = g.RingDepths()
	}
	status.Shards = make([]telemetry.ShardStatus, 0, len(s.Net.Shards))
	for i, sh := range s.Net.Shards {
		status.Shards = append(status.Shards, telemetry.ShardStatus{
			Shard:         i,
			AtNs:          int64(sh.Eng.Now()),
			WindowStartNs: int64(start),
			WindowEndNs:   int64(end),
			Processed:     sh.Eng.Processed,
			Pending:       sh.Eng.Len(),
		})
		status.EventsProcessed += sh.Eng.Processed
	}
	// At a barrier the profiler's BarrierStart ran before the hooks, so its
	// aggregates already cover the window that just closed.
	status.Perf = s.perf.Snapshot()
	s.status.PublishStatus(status)
	if s.Telemetry != nil {
		s.status.PublishMetrics(s.Telemetry.Registry.Snapshot(), s.Telemetry.Registry.SnapshotHistograms())
	}
	s.syncLive(int64(status.EventsProcessed), int64(now))
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
