package prdrb

import (
	"testing"

	"prdrb/internal/perf"
)

// runWithProfiler drives a fixed-seed scenario with an optional profiler
// attached and returns the rendered result summary.
func runWithProfiler(t *testing.T, shards int, p *perf.Profiler) string {
	t.Helper()
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 7, Shards: shards})
	if p != nil {
		s.AttachPerf(p)
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, Start: 0, End: 200 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	res := s.Execute(Millisecond)
	return res.String()
}

// TestProfilerDoesNotPerturbResults pins the zero-interference contract:
// a fixed-seed run produces the byte-identical summary with the profiler
// on (including span tracing) and off, serial and sharded. Goldens
// therefore cannot move when -perf is enabled.
func TestProfilerDoesNotPerturbResults(t *testing.T) {
	for _, shards := range []int{1, 4} {
		off := runWithProfiler(t, shards, nil)
		p := perf.New(perf.Options{Trace: true})
		on := runWithProfiler(t, shards, p)
		if on != off {
			t.Fatalf("shards=%d: profiler changed the summary:\noff: %s\non:  %s", shards, off, on)
		}
		r := p.Report()
		if r.TotalEvents == 0 {
			t.Fatalf("shards=%d: profiler observed no events", shards)
		}
		if shards > 1 && (r.Windows == 0 || r.RemoteRecords == 0) {
			t.Fatalf("shards=%d: profiler missed windows/remote records: %+v", shards, r)
		}
		if shards == 1 && r.Windows != 0 {
			t.Fatalf("serial run reported %d windows", r.Windows)
		}
	}
}

// TestProfilerDeterministicCountersStable pins that the deterministic
// section of the report (events, windows and their modes, remote records,
// far-heap counters) is identical across two runs of the same
// configuration, whatever GOMAXPROCS — the byte-stability `prdrbtrace perf
// -det` relies on.
func TestProfilerDeterministicCountersStable(t *testing.T) {
	run := func(procs int) (r perf.Report) {
		withGOMAXPROCS(procs, func() {
			p := perf.New(perf.Options{})
			runWithProfiler(t, 4, p)
			r = p.Report()
		})
		return r
	}
	a, b := run(1), run(4)
	if a.Windows != b.Windows || a.RemoteRecords != b.RemoteRecords || a.TotalEvents != b.TotalEvents ||
		a.InlineWindows != b.InlineWindows || a.ReleasedWindows != b.ReleasedWindows || a.ModeFlips != b.ModeFlips ||
		a.InlineWindows+a.ReleasedWindows != a.Windows {
		t.Fatalf("deterministic totals drifted:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.PerShard {
		x, y := a.PerShard[i], b.PerShard[i]
		if x.Events != y.Events || x.FarOverflows != y.FarOverflows || x.FarMigrations != y.FarMigrations {
			t.Fatalf("shard %d deterministic counters drifted: %+v vs %+v", i, x, y)
		}
	}
}
