package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// bounce ping-pongs events between two shards so every window has work
// and remote records.
type bounce struct {
	g     *sim.ShardGroup
	shard int
	peer  *bounce
	hops  int
}

func (b *bounce) HandleEvent(e *sim.Engine, kind uint8, arg uint64) {
	if int(arg) >= b.hops {
		return
	}
	b.g.Send(b.shard, b.peer.shard, sim.RemoteEvent{
		At:     e.Now() + 100,
		Target: b.peer,
		Arg:    arg + 1,
	})
}

func runProfiled(t *testing.T, opts Options) (*Profiler, *sim.ShardGroup) {
	t.Helper()
	g := sim.NewShardGroup(2, 100)
	a := &bounce{g: g, shard: 0, hops: 40}
	b := &bounce{g: g, shard: 1, hops: 40}
	a.peer, b.peer = b, a
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	p := New(opts)
	p.BindGroup(g)
	p.RunStart()
	g.RunAll()
	p.RunEnd()
	return p, g
}

func TestProfilerShardedAggregation(t *testing.T) {
	p, g := runProfiled(t, Options{Trace: true})
	r := p.Report()
	if !r.Sharded || r.Shards != 2 {
		t.Fatalf("mode wrong: %+v", r)
	}
	if r.Windows == 0 {
		t.Fatal("no windows profiled")
	}
	if r.TotalEvents != g.Processed() {
		t.Fatalf("profiled %d events, group processed %d", r.TotalEvents, g.Processed())
	}
	if r.RemoteRecords != 40 {
		t.Fatalf("remote records %d, want 40", r.RemoteRecords)
	}
	if m := g.WindowModes(); r.InlineWindows+r.ReleasedWindows != r.Windows ||
		r.InlineWindows != m.Inline || r.ReleasedWindows != m.Released || r.ModeFlips != m.Flips {
		t.Fatalf("window modes %d inline + %d released (%d flips) for %d windows, group says %+v",
			r.InlineWindows, r.ReleasedWindows, r.ModeFlips, r.Windows, m)
	}
	if r.WallNs <= 0 || r.BusyNs < 0 || r.IdleNs < 0 {
		t.Fatalf("wall accounting wrong: %+v", r)
	}
	if r.ImbalanceRatio < 1 {
		t.Fatalf("imbalance %v < 1", r.ImbalanceRatio)
	}
	if r.TraceSpans != int(r.Windows) {
		t.Fatalf("retained %d spans for %d windows", r.TraceSpans, r.Windows)
	}
	var evs uint64
	for _, s := range r.PerShard {
		evs += s.Events
	}
	if evs != r.TotalEvents {
		t.Fatalf("per-shard events sum %d != total %d", evs, r.TotalEvents)
	}
}

// spin burns a measurable stretch of wall time per event and re-arms
// itself until virtual time 5000, so every window has work on its shard.
type spin struct{ sink int }

func (s *spin) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	for i := 0; i < 20000; i++ {
		s.sink ^= i
	}
	if e.Now() < 5000 {
		e.ScheduleEvent(e.Now()+10, s, 0, 0)
	}
}

// TestProfilerSerialLoopBusyIsPerShard pins the per-shard start mark: a
// worker of the window loop runs its shards one after another, so a shard's
// busy time must not include the shards that ran before it on the same
// worker — Σ busy ≤ W × wall and the effective speedup cannot exceed W, the
// number of workers (1 on one core; 2 for four shards at GOMAXPROCS=2).
func TestProfilerSerialLoopBusyIsPerShard(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			g := sim.NewShardGroup(4, 100)
			for _, e := range g.Engines {
				e.ScheduleEvent(0, &spin{}, 0, 0)
			}
			p := New(Options{Trace: true})
			p.BindGroup(g)
			p.RunStart()
			g.RunAll()
			p.RunEnd()
			r := p.Report()
			if r.Windows == 0 || len(r.PerShard) != 4 {
				t.Fatalf("expected a profiled 4-shard run: %+v", r)
			}
			var busy int64
			for _, s := range r.PerShard {
				if s.BusyNs <= 0 {
					t.Fatalf("shard %d recorded no busy time", s.Shard)
				}
				if s.IdleNs < 0 {
					t.Fatalf("shard %d: negative idle %d", s.Shard, s.IdleNs)
				}
				busy += s.BusyNs
			}
			if busy != r.BusyNs || busy > int64(workers)*r.WallNs {
				t.Fatalf("Σ per-shard busy %d (report %d) exceeds %d × wall %d", busy, r.BusyNs, workers, r.WallNs)
			}
			if r.EffectiveSpeedup > float64(workers) {
				t.Fatalf("effective speedup %.3f > %d workers", r.EffectiveSpeedup, workers)
			}
			// The same holds window by window in the trace: worker w runs
			// shards w, w+W, … back to back inside the exec phase, so their
			// execution slices never overlap and Σ busy ≤ W × exec.
			for wi, sp := range p.spans {
				var winBusy int64
				for w := 0; w < workers; w++ {
					end := sp.ExecNs
					for si := w; si < len(sp.Shards); si += workers {
						ss := sp.Shards[si]
						if ss.StartNs < end {
							t.Fatalf("window %d shard %d starts at %d, before its worker was free at %d", wi, si, ss.StartNs, end)
						}
						end = ss.StartNs + ss.BusyNs
						winBusy += ss.BusyNs
					}
					if end > sp.BarrierNs {
						t.Fatalf("window %d: worker %d ran past the barrier (%d > %d)", wi, w, end, sp.BarrierNs)
					}
				}
				if exec := sp.BarrierNs - sp.ExecNs; winBusy > int64(workers)*exec {
					t.Fatalf("window %d: Σ busy %d > %d × exec %d", wi, winBusy, workers, exec)
				}
			}
		})
	}
}

func TestProfilerReportJSONRoundTrip(t *testing.T) {
	p, _ := runProfiled(t, Options{})
	r := p.Report()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	var w1, w2 bytes.Buffer
	r.WriteText(&w1, true)
	back.WriteText(&w2, true)
	if w1.String() != w2.String() {
		t.Fatalf("deterministic rendering changed across JSON round trip:\n%s\nvs\n%s", w1.String(), w2.String())
	}
}

func TestProfilerTraceIsValidChromeJSON(t *testing.T) {
	p, _ := runProfiled(t, Options{Trace: true})
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var winSlices, waitSlices, barrierSlices, metas int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
			metas++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "win@"):
			winSlices++
		case ev.Ph == "X" && ev.Name == "barrier-wait":
			waitSlices++
		case ev.Ph == "X" && ev.Tid == barrierTid:
			barrierSlices++
		}
	}
	if metas < 3 { // process + barrier track + >=1 shard track
		t.Fatalf("missing track metadata: %d", metas)
	}
	if winSlices == 0 {
		t.Fatal("no per-shard window slices")
	}
	if waitSlices == 0 {
		t.Fatal("no barrier-wait slices — idle time is invisible")
	}
	if barrierSlices == 0 {
		t.Fatal("no coordinator barrier slices")
	}
}

func TestProfilerSerialBind(t *testing.T) {
	e := sim.NewEngine()
	fired := 0
	for i := 0; i < 100; i++ {
		e.Schedule(sim.Time(i*10), func(*sim.Engine) { fired++ })
	}
	p := New(Options{})
	p.BindSerial(func() []sim.EngineStats { return []sim.EngineStats{e.Stats()} })
	p.RunStart()
	e.RunAll()
	p.RunEnd()
	r := p.Report()
	if r.Sharded || r.Shards != 1 {
		t.Fatalf("mode wrong: %+v", r)
	}
	if r.TotalEvents != 100 {
		t.Fatalf("events %d, want 100", r.TotalEvents)
	}
	if r.Windows != 0 {
		t.Fatalf("serial run reported %d windows", r.Windows)
	}
	if r.WallNs <= 0 || r.BusyNs != r.WallNs {
		t.Fatalf("serial busy should equal wall: %+v", r)
	}
	// A second Execute segment folds deltas, not absolutes.
	for i := 0; i < 50; i++ {
		e.Schedule(e.Now()+sim.Time(i*10), func(*sim.Engine) { fired++ })
	}
	p.RunStart()
	e.RunAll()
	p.RunEnd()
	if r := p.Report(); r.TotalEvents != 150 {
		t.Fatalf("after second segment events %d, want 150", r.TotalEvents)
	}
}

func TestProfilerMetricsRegistration(t *testing.T) {
	p, _ := runProfiled(t, Options{})
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg)
	scalars := reg.Snapshot()
	if scalars["perf.windows"] == 0 {
		t.Fatalf("perf.windows gauge empty: %v", scalars)
	}
	for _, name := range []string{"perf.shard0.busy_ns", "perf.shard1.busy_ns", "perf.wall_ns"} {
		if _, ok := scalars[name]; !ok {
			t.Fatalf("missing gauge %s", name)
		}
	}
	hists := reg.SnapshotHistograms()
	h, ok := hists["perf.window_exec_ns.shard0"]
	if !ok {
		t.Fatalf("missing per-shard window histogram: %v", hists)
	}
	if h.Count == 0 {
		t.Fatal("window histogram has no samples")
	}
	// The exposition must accept the perf metric names.
	var buf bytes.Buffer
	if err := telemetry.WriteExposition(&buf, scalars, hists); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(&buf); err != nil {
		t.Fatalf("perf metrics break the exposition: %v", err)
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	p.RunStart()
	p.RunEnd()
	p.BindGroup(nil)
	p.BindSerial(nil)
	p.RegisterMetrics(nil)
	if p.Snapshot() != nil {
		t.Fatal("nil profiler produced a snapshot")
	}
	if p.Bound() || p.Sharded() {
		t.Fatal("nil profiler claims state")
	}
	r := p.Report()
	var buf bytes.Buffer
	r.WriteText(&buf, false)
	if !strings.Contains(buf.String(), "mode=serial") {
		t.Fatalf("empty report rendering broken:\n%s", buf.String())
	}
}
