package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"prdrb/internal/telemetry"
)

// ShardReport is one shard's slice of the PerfReport. The Events and
// Far* fields are deterministic; everything else is wall-derived.
type ShardReport struct {
	Shard  int    `json:"shard"`
	Events uint64 `json:"events"`
	// FarOverflows/FarMigrations are the shard wheel's far-heap traffic
	// and Cascades its coarse-to-fine traffic, SlotWalks the records its
	// fine-slot inserts walked past (see sim.EngineStats).
	FarOverflows  uint64 `json:"far_overflows"`
	FarMigrations uint64 `json:"far_migrations"`
	Cascades      uint64 `json:"cascades"`
	SlotWalks     uint64 `json:"slot_walks"`
	BusyNs        int64  `json:"busy_ns"`
	IdleNs        int64  `json:"idle_ns"`
	// IdleFraction is IdleNs / (BusyNs + IdleNs): the share of the
	// windows' exec phase this shard spent not executing — waiting for
	// its turn (one core) or at the barrier (load imbalance).
	IdleFraction float64 `json:"idle_fraction"`
	EventsPerSec float64 `json:"events_per_sec"`
	// WindowP50Ns/WindowP99Ns are per-window wall execution-time
	// percentiles; WindowHist is the full distribution.
	WindowP50Ns float64                 `json:"window_p50_ns"`
	WindowP99Ns float64                 `json:"window_p99_ns"`
	WindowHist  *telemetry.HistSnapshot `json:"window_hist,omitempty"`
}

// Report is the profiler's aggregated output (the PerfReport). JSON
// round-trips losslessly, so `prdrbtrace perf` renders exactly what the
// run wrote.
type Report struct {
	// Sharded records the engine mode; serial runs report one
	// pseudo-shard whose busy time is the whole Execute wall time.
	Sharded bool `json:"sharded"`
	Shards  int  `json:"shards"`
	// Deterministic totals.
	Windows uint64 `json:"windows"`
	// InlineWindows ran every shard on the coordinator, ReleasedWindows
	// were handed to the group's workers, ModeFlips counts the changes
	// between the two (sim.WindowModes; all zero for a serial run).
	InlineWindows   uint64 `json:"inline_windows"`
	ReleasedWindows uint64 `json:"released_windows"`
	ModeFlips       uint64 `json:"mode_flips"`
	RemoteRecords   uint64 `json:"remote_records"`
	TotalEvents     uint64 `json:"total_events"`
	// Wall-clock breakdown (non-deterministic): total profiled wall time
	// and the single-threaded barrier components.
	WallNs  int64 `json:"wall_ns"`
	CtrlNs  int64 `json:"ctrl_ns"`
	HookNs  int64 `json:"hook_ns"`
	FlushNs int64 `json:"flush_ns"`
	// Critical-path vs idle breakdown: BusyNs sums each shard's own
	// execution time (start mark → done mark), IdleNs the rest of every
	// window's exec phase.
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
	// ImbalanceRatio is max per-shard busy over the mean; IdleFraction
	// is IdleNs/(BusyNs+IdleNs); EffectiveSpeedup is BusyNs/WallNs — the
	// parallelism actually realized (1 ≈ serial, N ≈ perfect N-way).
	ImbalanceRatio   float64       `json:"imbalance_ratio"`
	IdleFraction     float64       `json:"idle_fraction"`
	EffectiveSpeedup float64       `json:"effective_speedup"`
	PerShard         []ShardReport `json:"per_shard"`
	// TraceSpans/DroppedSpans document Perfetto trace coverage when
	// tracing was on (truncation is never silent).
	TraceSpans   int `json:"trace_spans,omitempty"`
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// Report assembles the aggregated report. Call after the profiled runs
// finish (or from barrier context for an in-flight view).
func (p *Profiler) Report() Report {
	if p == nil {
		return Report{}
	}
	busy, idle, events := p.totals()
	shardsN := len(p.busyNs)
	if shardsN == 0 {
		shardsN = p.curShards
	}
	r := Report{
		Sharded:          p.sharded,
		Shards:           shardsN,
		Windows:          p.windows,
		InlineWindows:    p.modes.Inline,
		ReleasedWindows:  p.modes.Released,
		ModeFlips:        p.modes.Flips,
		RemoteRecords:    p.remote,
		TotalEvents:      events,
		WallNs:           p.curWallNs(),
		CtrlNs:           p.ctrlNs,
		HookNs:           p.hookNs,
		FlushNs:          p.flushNs,
		BusyNs:           busy,
		IdleNs:           idle,
		ImbalanceRatio:   p.imbalance(),
		EffectiveSpeedup: speedup(busy, p.curWallNs()),
		TraceSpans:       len(p.spans),
		DroppedSpans:     p.droppedSpans,
	}
	if busy+idle > 0 {
		r.IdleFraction = float64(idle) / float64(busy+idle)
	}
	for i := 0; i < len(p.busyNs); i++ {
		sr := ShardReport{
			Shard:         i,
			Events:        p.events[i],
			FarOverflows:  p.farOverflows[i],
			FarMigrations: p.farMigrations[i],
			Cascades:      p.cascades[i],
			SlotWalks:     p.slotWalks[i],
			BusyNs:        p.busyNs[i],
			IdleNs:        p.idleNs[i],
			EventsPerSec:  rate(p.events[i], p.busyNs[i]),
			WindowP50Ns:   p.winHist[i].Quantile(0.5),
			WindowP99Ns:   p.winHist[i].Quantile(0.99),
		}
		if p.busyNs[i]+p.idleNs[i] > 0 {
			sr.IdleFraction = float64(p.idleNs[i]) / float64(p.busyNs[i]+p.idleNs[i])
		}
		if p.winHist[i].Count() > 0 {
			bounds, counts, total, sum := p.winHist[i].Export()
			sr.WindowHist = &telemetry.HistSnapshot{Bounds: bounds, Counts: counts, Count: total, Sum: sum}
		}
		r.PerShard = append(r.PerShard, sr)
	}
	return r
}

// WriteReport writes the report as indented JSON to w.
func (p *Profiler) WriteReport(w io.Writer) error {
	r := p.Report()
	b, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadReport loads a report written by WriteReport.
func ReadReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// shardMetric names a per-shard registry metric.
func shardMetric(format string, i int) string { return fmt.Sprintf(format, i) }

// ms renders nanoseconds as milliseconds with fixed precision.
func ms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// usF renders float nanoseconds as microseconds with fixed precision.
func usF(ns float64) string { return fmt.Sprintf("%.2fus", ns/1e3) }

// WriteText renders the report for humans. The deterministic section
// comes first and is byte-stable for a fixed (configuration, seed,
// shards) regardless of machine or load; detOnly stops there. The
// wall-clock section is explicitly marked non-deterministic.
func (r Report) WriteText(w io.Writer, detOnly bool) {
	mode := "serial"
	if r.Sharded {
		mode = "sharded"
	}
	fmt.Fprintf(w, "# engine perf report\n")
	fmt.Fprintf(w, "mode=%s shards=%d\n", mode, r.Shards)
	fmt.Fprintf(w, "\n## deterministic counters (byte-stable for fixed seed/shards)\n")
	fmt.Fprintf(w, "windows=%d remote_records=%d events=%d\n", r.Windows, r.RemoteRecords, r.TotalEvents)
	if r.Sharded {
		fmt.Fprintf(w, "inline_windows=%d released_windows=%d mode_flips=%d\n", r.InlineWindows, r.ReleasedWindows, r.ModeFlips)
	}
	fmt.Fprintf(w, "%6s %12s %14s %14s\n", "shard", "events", "far_overflows", "far_migrations")
	shards := append([]ShardReport(nil), r.PerShard...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	var evSum, ovSum, migSum, casSum, walkSum uint64
	for _, s := range shards {
		fmt.Fprintf(w, "%6d %12d %14d %14d\n", s.Shard, s.Events, s.FarOverflows, s.FarMigrations)
		evSum += s.Events
		ovSum += s.FarOverflows
		migSum += s.FarMigrations
		casSum += s.Cascades
		walkSum += s.SlotWalks
	}
	fmt.Fprintf(w, "%6s %12d %14d %14d\n", "total", evSum, ovSum, migSum)
	if casSum > 0 {
		// Reports written before the coarse tier existed carry none.
		fmt.Fprintf(w, "cascades=%d\n", casSum)
	}
	if walkSum > 0 {
		fmt.Fprintf(w, "slot_walks=%d\n", walkSum)
	}
	if detOnly {
		return
	}
	fmt.Fprintf(w, "\n## wall clock (NON-DETERMINISTIC: varies run to run and machine to machine)\n")
	fmt.Fprintf(w, "wall=%s ctrl=%s hooks=%s flush=%s\n", ms(r.WallNs), ms(r.CtrlNs), ms(r.HookNs), ms(r.FlushNs))
	fmt.Fprintf(w, "busy=%s idle=%s\n", ms(r.BusyNs), ms(r.IdleNs))
	fmt.Fprintf(w, "%6s %12s %12s %7s %14s %12s %12s\n",
		"shard", "busy", "idle", "idle%", "events/s", "win_p50", "win_p99")
	for _, s := range shards {
		fmt.Fprintf(w, "%6d %12s %12s %6.1f%% %14.0f %12s %12s\n",
			s.Shard, ms(s.BusyNs), ms(s.IdleNs), s.IdleFraction*100,
			s.EventsPerSec, usF(s.WindowP50Ns), usF(s.WindowP99Ns))
	}
	fmt.Fprintf(w, "imbalance=%.3fx idle_fraction=%.1f%% effective_speedup=%.3fx\n",
		r.ImbalanceRatio, r.IdleFraction*100, r.EffectiveSpeedup)
	if r.TraceSpans > 0 || r.DroppedSpans > 0 {
		fmt.Fprintf(w, "trace: %d window spans retained, %d dropped past the cap\n",
			r.TraceSpans, r.DroppedSpans)
	}
}
