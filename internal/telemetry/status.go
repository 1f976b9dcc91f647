package telemetry

import (
	"sync"
	"sync/atomic"
)

// Live status plane. The simulation never serves HTTP from its own
// goroutines: the runner's quiescent-point sampler evaluates simulation
// state once per sampling interval of virtual time, on the goroutine that
// owns that state, and publishes plain-data snapshots into a mutex-guarded
// Board. HTTP handlers read only the Board, never live simulation state —
// so the status server cannot race the hot path, and a simulation built
// without a Board carries a nil handle and pays nothing.

// ShardStatus is one shard engine's position within the conservative
// parallel execution, read at the window barrier that published the
// snapshot: its local virtual clock and the bounds of the window that
// barrier closed. A serial run has a single entry, and a run parked at its
// horizon one per shard, whose window is the degenerate [AtNs, AtNs].
type ShardStatus struct {
	Shard int `json:"shard"`
	// AtNs is the shard's local virtual clock at sample time: the time of
	// the last event it executed in the window (the window start if none).
	AtNs int64 `json:"at_ns"`
	// WindowStartNs/WindowEndNs bound the barrier window the sample closed;
	// WindowStartNs <= AtNs <= WindowEndNs always holds.
	WindowStartNs int64 `json:"window_start_ns"`
	WindowEndNs   int64 `json:"window_end_ns"`
	// Processed is the shard's cumulative executed-event count.
	Processed uint64 `json:"processed"`
	// Pending is the shard's local queue length at sample time.
	Pending int `json:"pending"`
}

// PerfShardStatus is one shard's wall-clock accounting from the engine
// profiler: time spent executing windows vs. waiting at barriers. All
// fields are wall-derived and therefore non-deterministic.
type PerfShardStatus struct {
	Shard int `json:"shard"`
	// Events is the number of events the shard executed inside profiled
	// windows (deterministic, unlike the times below).
	Events uint64 `json:"events"`
	// BusyNs is wall time the shard itself spent executing window events;
	// IdleNs is the rest of the windows' exec phase: waiting for its turn
	// when shards share a core, for slower shards otherwise (≈ imbalance).
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
	// EventsPerSec is the shard's execution rate over its busy time.
	EventsPerSec float64 `json:"events_per_sec"`
	// WindowP50Ns/WindowP99Ns are percentiles of the shard's per-window
	// wall execution time.
	WindowP50Ns float64 `json:"window_p50_ns"`
	WindowP99Ns float64 `json:"window_p99_ns"`
}

// PerfStatus is the engine profiler's live snapshot: where wall-clock
// time goes inside the window/barrier loop. Present on Status only when
// a profiler is attached.
type PerfStatus struct {
	// Windows counts completed barrier windows (deterministic).
	Windows uint64 `json:"windows"`
	// WallNs is wall time spent inside profiled Execute calls.
	WallNs int64 `json:"wall_ns"`
	// CtrlNs/HookNs/FlushNs split the single-threaded barrier cost:
	// barrier-task execution, OnBarrier hooks, and the ring flush.
	CtrlNs  int64 `json:"ctrl_ns"`
	HookNs  int64 `json:"hook_ns"`
	FlushNs int64 `json:"flush_ns"`
	// RemoteRecords counts cross-shard handoffs flushed (deterministic).
	RemoteRecords uint64 `json:"remote_records"`
	// ImbalanceRatio is max per-shard busy time over the mean (1 =
	// perfectly balanced); IdleFraction is total idle time over total
	// shard wall time; EffectiveSpeedup is total busy time over the
	// windowed wall time (the parallelism actually realized).
	ImbalanceRatio   float64           `json:"imbalance_ratio"`
	IdleFraction     float64           `json:"idle_fraction"`
	EffectiveSpeedup float64           `json:"effective_speedup"`
	Shards           []PerfShardStatus `json:"shards,omitempty"`
}

// Status is one published snapshot of a running simulation.
type Status struct {
	// Seq increments with every publish; SSE clients use it to detect
	// fresh snapshots.
	Seq uint64 `json:"seq"`
	// VirtualNs is the simulation clock at sample time (the barrier clock
	// for sharded runs).
	VirtualNs int64 `json:"virtual_ns"`
	// EventsProcessed is the cumulative executed-event count.
	EventsProcessed uint64 `json:"events_processed"`
	// EventsPerSec is the wall-clock event rate, filled in by the server
	// at serve time (the only wall-derived field; the sampler never reads
	// the wall clock).
	EventsPerSec float64 `json:"events_per_sec"`
	// Packet accounting: offered (injected), delivered and dropped so
	// far, and packet records currently in flight.
	OfferedPkts   int64 `json:"offered_pkts"`
	DeliveredPkts int64 `json:"delivered_pkts"`
	DroppedPkts   int64 `json:"dropped_pkts"`
	InFlightPkts  int64 `json:"in_flight_pkts"`
	// Fault state: links currently down or running degraded.
	FailedLinks   int `json:"failed_links"`
	DegradedLinks int `json:"degraded_links"`
	// PR-DRB control state: metapaths currently open and the extra
	// (alternative) paths they have injected.
	OpenMetapaths  int `json:"open_metapaths"`
	OpenExtraPaths int `json:"open_extra_paths"`
	// QueuedBytes sums router queue occupancy at sample time.
	QueuedBytes int64 `json:"queued_bytes"`
	// Shards carries per-shard window positions (one entry for serial
	// runs).
	Shards []ShardStatus `json:"shards,omitempty"`
	// RingDepths is the cross-shard handoff ring occupancy sampled at the
	// last barrier, flattened src*N+dst. Empty for serial runs.
	RingDepths []int `json:"ring_depths,omitempty"`
	// Perf carries the engine profiler's wall-clock accounting when a
	// profiler is attached (nil otherwise — the common case).
	Perf *PerfStatus `json:"perf,omitempty"`
}

// FleetCellStatus is one campaign cell's live position in the grid.
type FleetCellStatus struct {
	// Cell is the grid cell's name (topology/policy/pattern/rate/seed).
	Cell string `json:"cell"`
	// State is "running", "done", "failed" or "skipped" (already complete
	// when the campaign started).
	State string `json:"state"`
	// VirtualNs is the cell's committed simulated time: 0 until the cell
	// finishes, HorizonNs (where the run ends) once it is done or skipped.
	VirtualNs int64 `json:"virtual_ns"`
	HorizonNs int64 `json:"horizon_ns"`
}

// FleetStatus is a campaign's aggregate view: how many simulations are
// running, done or failed, plus per-cell positions. Published by the
// campaign scheduler, served at /fleet.
type FleetStatus struct {
	// Seq increments with every publish (stamped by the Board).
	Seq uint64 `json:"seq"`
	// Campaign is the campaign key (manifest content hash).
	Campaign string `json:"campaign"`
	Total    int    `json:"total"`
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Skipped  int    `json:"skipped"`
	// EventsProcessed aggregates executed events across all cell runs;
	// EventsPerSec is filled in by the server at serve time.
	EventsProcessed int64             `json:"events_processed"`
	EventsPerSec    float64           `json:"events_per_sec"`
	Cells           []FleetCellStatus `json:"cells,omitempty"`
}

// Board is the handoff point between sampler actors and the HTTP server:
// samplers publish under the lock, handlers copy out under the lock.
// A nil *Board is inert — every method no-ops — so wiring stays nil-safe
// like the Tracer.
type Board struct {
	mu      sync.Mutex
	seq     uint64
	status  Status
	have    bool
	scalars map[string]int64
	hists   map[string]HistSnapshot

	fleetSeq  uint64
	fleet     FleetStatus
	haveFleet bool

	congSeq  uint64
	cong     CongestionStatus
	haveCong bool
}

// NewBoard returns an empty board.
func NewBoard() *Board { return &Board{} }

// PublishStatus stores s as the latest snapshot, stamping its Seq.
func (b *Board) PublishStatus(s Status) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	s.Seq = b.seq
	b.status = s
	b.have = true
	b.mu.Unlock()
}

// PublishMetrics stores the latest registry snapshot for /metrics. The
// maps are retained; callers must hand over ownership (snapshots are
// freshly built per publish).
func (b *Board) PublishMetrics(scalars map[string]int64, hists map[string]HistSnapshot) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.scalars = scalars
	b.hists = hists
	b.mu.Unlock()
}

// PublishFleet stores f as the latest campaign fleet view, stamping its
// Seq.
func (b *Board) PublishFleet(f FleetStatus) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.fleetSeq++
	f.Seq = b.fleetSeq
	b.fleet = f
	b.haveFleet = true
	b.mu.Unlock()
}

// Fleet returns the most recent fleet view and whether one was ever
// published.
func (b *Board) Fleet() (FleetStatus, bool) {
	if b == nil {
		return FleetStatus{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.fleet
	f.Cells = append([]FleetCellStatus(nil), f.Cells...)
	return f, b.haveFleet
}

// Latest returns the most recent status and whether one was ever
// published.
func (b *Board) Latest() (Status, bool) {
	if b == nil {
		return Status{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.status
	// Copy the slices: the publisher may reuse backing arrays on the next
	// tick, and handlers serialize outside the lock.
	s.Shards = append([]ShardStatus(nil), s.Shards...)
	s.RingDepths = append([]int(nil), s.RingDepths...)
	if s.Perf != nil {
		p := *s.Perf
		p.Shards = append([]PerfShardStatus(nil), p.Shards...)
		s.Perf = &p
	}
	return s, b.have
}

// Metrics returns the most recent registry snapshot (possibly nil maps if
// none was published yet).
func (b *Board) Metrics() (map[string]int64, map[string]HistSnapshot) {
	if b == nil {
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.scalars, b.hists
}

// LiveStats is the cheap cross-goroutine progress feed: atomic counters a
// simulation adds to at cold-path moments (run completion, barrier ticks)
// and readers (the status server's rate estimator, the experiments
// progress line) sample from any goroutine. A nil *LiveStats no-ops.
type LiveStats struct {
	// Events is the cumulative executed-event count across all runs.
	Events atomic.Int64
	// VirtualNs is the latest simulation clock reading.
	VirtualNs atomic.Int64
	// Runs counts completed experiment runs.
	Runs atomic.Int64
}

// AddEvents folds a completed batch into the feed.
func (l *LiveStats) AddEvents(n int64) {
	if l == nil {
		return
	}
	l.Events.Add(n)
}

// SetVirtual records the latest virtual clock.
func (l *LiveStats) SetVirtual(ns int64) {
	if l == nil {
		return
	}
	l.VirtualNs.Store(ns)
}

// AddRun counts one completed run.
func (l *LiveStats) AddRun() {
	if l == nil {
		return
	}
	l.Runs.Add(1)
}
