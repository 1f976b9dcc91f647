package runner

import (
	"reflect"
	"strings"
	"testing"

	"prdrb/internal/perf"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

const statusTestHorizon = sim.Time(2_000_000) // 2ms: enough to drain the 200µs load

func installStatusLoad(t *testing.T, s *Sim) {
	t.Helper()
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, Start: 0, End: 200_000}); err != nil {
		t.Fatal(err)
	}
}

// barrierLog records a sharded run's ground truth from a hook registered
// after AttachStatus (so the sampler has already published when it runs):
// the winEnd of every barrier, and the snapshot each publishing barrier
// left on the board — one entry per advance of Seq.
type barrierLog struct {
	ends      []sim.Time
	published []publishRec
	seq       uint64 // the board's Seq when the last barrier hook returned
}

type publishRec struct {
	winEnd sim.Time
	st     telemetry.Status
}

func logBarriers(g *sim.ShardGroup, board *telemetry.Board) *barrierLog {
	l := &barrierLog{}
	g.OnBarrier(func(winEnd sim.Time) {
		l.ends = append(l.ends, winEnd)
		if st, ok := board.Latest(); ok && st.Seq > l.seq {
			l.seq = st.Seq
			l.published = append(l.published, publishRec{winEnd, st})
		}
	})
	return l
}

// TestShardedStatusWindows is the acceptance check for the live plane on
// the conservative-parallel engine: every published snapshot's per-shard
// window position must agree with the shard group's actual barrier
// progression — the window a snapshot reports is exactly the window the
// publishing barrier closed, and each shard's clock sits inside it.
func TestShardedStatusWindows(t *testing.T) {
	board := telemetry.NewBoard()
	s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 11, Shards: 2})
	s.AttachStatus(board, 10_000) // sample every 10µs of virtual time
	g := s.Net.Group()
	if g == nil {
		t.Fatal("expected a sharded simulation")
	}
	log := logBarriers(g, board)
	installStatusLoad(t, s)
	res := s.Execute(statusTestHorizon)
	if res.DeliveredPkts == 0 {
		t.Fatal("no traffic delivered; the load did not run")
	}
	if len(log.published) == 0 {
		t.Fatal("no status snapshots published at barriers")
	}
	barrierEnds := map[int64]bool{}
	for _, end := range log.ends {
		barrierEnds[int64(end)] = true
	}

	var lastVirtual int64
	for _, r := range log.published {
		st := r.st
		if st.VirtualNs < lastVirtual {
			t.Fatalf("VirtualNs went backwards: %d after %d", st.VirtualNs, lastVirtual)
		}
		lastVirtual = st.VirtualNs
		// The snapshot is assembled at the barrier itself.
		if st.VirtualNs != int64(r.winEnd) {
			t.Fatalf("snapshot virtual time %d != barrier winEnd %d", st.VirtualNs, r.winEnd)
		}
		if len(st.Shards) != g.Shards() {
			t.Fatalf("snapshot has %d shard entries, want %d", len(st.Shards), g.Shards())
		}
		var processed uint64
		for i, sh := range st.Shards {
			if sh.Shard != i {
				t.Fatalf("shard entry %d labeled %d", i, sh.Shard)
			}
			processed += sh.Processed
			// The shard clock must sit inside the window it reports...
			if sh.WindowStartNs > sh.AtNs || sh.AtNs > sh.WindowEndNs {
				t.Fatalf("shard %d sampled at %d outside window [%d, %d]",
					i, sh.AtNs, sh.WindowStartNs, sh.WindowEndNs)
			}
			// ...and the reported window must be one the engine actually
			// closed: its end appears in the barrier progression.
			if !barrierEnds[sh.WindowEndNs] {
				t.Fatalf("shard %d reports window end %d, never a barrier", i, sh.WindowEndNs)
			}
			// No snapshot may report a window past the barrier that
			// published it.
			if sh.WindowEndNs > int64(r.winEnd) {
				t.Fatalf("shard %d window end %d beyond publishing barrier %d",
					i, sh.WindowEndNs, r.winEnd)
			}
		}
		if processed != st.EventsProcessed {
			t.Fatalf("shard rows sum to %d events, snapshot says %d", processed, st.EventsProcessed)
		}
	}
	// The closing snapshot Execute publishes is the final word: the group
	// is parked at the horizon, so every shard reports the degenerate window.
	final, _ := board.Latest()
	if final.Seq != log.published[len(log.published)-1].st.Seq+1 {
		t.Errorf("closing snapshot missing: final seq %d after %d barrier publishes", final.Seq, len(log.published))
	}
	if final.VirtualNs != int64(statusTestHorizon) || final.EventsProcessed != s.Processed() || final.DeliveredPkts != res.DeliveredPkts {
		t.Errorf("closing snapshot not final: %+v", final)
	}
	for i, sh := range final.Shards {
		if sh.AtNs != final.VirtualNs || sh.WindowStartNs != sh.AtNs || sh.WindowEndNs != sh.AtNs || sh.Pending != 0 {
			t.Errorf("closing shard row %d not parked at the horizon: %+v", i, sh)
		}
	}
	if final.OfferedPkts < final.DeliveredPkts {
		t.Errorf("offered %d < delivered %d", final.OfferedPkts, final.DeliveredPkts)
	}
}

// TestShardedStatusCadence pins the one cadence rule on the status plane:
// a sharded run publishes once per interval — at the first barrier at or
// past each multiple of it — plus the closing snapshot, not once per
// barrier; and a run sliced at a barrier-grid time samples on the same
// grid as an uninterrupted one.
func TestShardedStatusCadence(t *testing.T) {
	const interval = sim.Time(10_000)
	run := func(slices ...sim.Time) (*barrierLog, uint64) {
		board := telemetry.NewBoard()
		s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 11, Shards: 2})
		s.AttachStatus(board, interval)
		log := logBarriers(s.Net.Group(), board)
		installStatusLoad(t, s)
		for _, at := range slices {
			s.Execute(s.AlignCheckpoint(at))
			log.seq++ // the slice's closing snapshot is not a barrier publish
		}
		s.Execute(statusTestHorizon)
		st, _ := board.Latest()
		return log, st.Seq
	}
	whole, seq := run()
	span := whole.ends[len(whole.ends)-1]
	if max := uint64((span+interval-1)/interval) + 1; seq > max {
		t.Errorf("%d publishes over %d barriers spanning %dns, want at most ⌈span/interval⌉+1 = %d",
			seq, len(whole.ends), span, max)
	}
	if len(whole.published) < 10 {
		t.Fatalf("only %d barrier publishes over a %dns run sampled every %dns", len(whole.published), span, interval)
	}
	// A barrier publishes iff it is the first at or past a grid point, i.e.
	// iff a multiple of the interval lies in (previous barrier, this one].
	pubAt := map[sim.Time]bool{}
	for _, r := range whole.published {
		pubAt[r.winEnd] = true
	}
	prev := sim.Time(0)
	for _, end := range whole.ends {
		if crossed := end/interval > prev/interval; crossed != pubAt[end] {
			t.Fatalf("barrier %d after %d: crossed a grid point = %v, published = %v", end, prev, crossed, pubAt[end])
		}
		prev = end
	}
	sliced, slicedSeq := run(70_000)
	if slicedSeq != seq+1 {
		t.Errorf("sliced run published %d snapshots, want the whole run's %d plus one closing snapshot", slicedSeq, seq)
	}
	if len(sliced.published) != len(whole.published) {
		t.Fatalf("sliced run published at %d barriers, whole run at %d", len(sliced.published), len(whole.published))
	}
	for i, r := range sliced.published {
		if w := whole.published[i]; r.winEnd != w.winEnd || r.st.EventsProcessed != w.st.EventsProcessed {
			t.Fatalf("publish %d: sliced run at %d (%d events), whole run at %d (%d events)",
				i, r.winEnd, r.st.EventsProcessed, w.winEnd, w.st.EventsProcessed)
		}
	}
}

// TestShardedStatusSideEffectFree: a board on a sharded run schedules
// nothing, so everything deterministic about the run — results, executed
// events, the window-mode sequence and the profiler's deterministic section
// (what `prdrbtrace perf -det` renders) — equals the board-less run's.
func TestShardedStatusSideEffectFree(t *testing.T) {
	for _, shards := range []int{2, 4} {
		run := func(board *telemetry.Board) (Results, uint64, sim.WindowModes, string) {
			s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 42, Shards: shards})
			prof := perf.New(perf.Options{})
			s.AttachPerf(prof)
			s.AttachStatus(board, 10_000)
			installStatusLoad(t, s)
			res := s.Execute(statusTestHorizon)
			var det strings.Builder
			prof.Report().WriteText(&det, true)
			return res, s.Processed(), s.Net.Group().WindowModes(), det.String()
		}
		res, events, modes, det := run(nil)
		board := telemetry.NewBoard()
		bres, bevents, bmodes, bdet := run(board)
		if st, ok := board.Latest(); !ok || st.Seq < 10 {
			t.Fatalf("shards=%d: board saw %d publishes; the observed run did not observe", shards, st.Seq)
		}
		if !reflect.DeepEqual(res, bres) {
			t.Errorf("shards=%d: results changed with status attached:\nplain:    %+v\nobserved: %+v", shards, res, bres)
		}
		if events != bevents {
			t.Errorf("shards=%d: %d events executed with a board, %d without", shards, bevents, events)
		}
		if modes != bmodes {
			t.Errorf("shards=%d: window modes %+v with a board, %+v without", shards, bmodes, modes)
		}
		if det != bdet {
			t.Errorf("shards=%d: deterministic perf section differs with a board:\n%s\nvs\n%s", shards, bdet, det)
		}
	}
}

// TestSampleEveryOneCadence runs the same cell serial and sharded through
// sampleEvery, the one helper both planes sample with: the body runs once
// per period from one period after the attach time — whole, sliced or
// attached late — and both engine kinds see the same number of calls ±1.
func TestSampleEveryOneCadence(t *testing.T) {
	const period = sim.Time(10_000)
	cases := []struct {
		name     string
		attachAt sim.Time   // Execute to here before attaching (0 = at build)
		slices   []sim.Time // intermediate Execute horizons after attaching
	}{
		{name: "whole"},
		{name: "sliced", slices: []sim.Time{70_000, 130_000}},
		{name: "late-attach", attachAt: 50_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := map[int][]sim.Time{}
			for _, shards := range []int{1, 2} {
				s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 11, Shards: shards})
				installStatusLoad(t, s)
				if tc.attachAt > 0 {
					s.Execute(s.AlignCheckpoint(tc.attachAt))
				}
				attached := s.Now()
				var at []sim.Time
				s.sampleEvery(period, func(now sim.Time) {
					if now != s.Now() {
						t.Fatalf("shards=%d: body called with now=%d at clock %d", shards, now, s.Now())
					}
					at = append(at, now)
				})
				for _, h := range tc.slices {
					s.Execute(s.AlignCheckpoint(h))
				}
				s.Execute(statusTestHorizon)
				if len(at) < 10 {
					t.Fatalf("shards=%d: only %d samples", shards, len(at))
				}
				// One sample per period: sample k is the first quiescent
				// point at or past attach + k·period, so it sits inside
				// [attach + k·period, attach + (k+1)·period) unless the
				// engine skipped whole periods (then later still).
				for k, now := range at {
					if due := attached + sim.Time(k+1)*period; now < due {
						t.Fatalf("shards=%d: sample %d at %d, before its grid point %d", shards, k, now, due)
					}
					if k > 0 && (now-attached)/period == (at[k-1]-attached)/period {
						t.Fatalf("shards=%d: samples %d and %d share a period: %d, %d", shards, k-1, k, at[k-1], now)
					}
				}
				if shards == 1 && at[0] != attached+period {
					t.Errorf("serial first sample at %d, want exactly attach %d + period", at[0], attached)
				}
				calls[shards] = at
			}
			if d := len(calls[1]) - len(calls[2]); d < -1 || d > 1 {
				t.Errorf("serial sampled %d times, sharded %d: want equal ±1", len(calls[1]), len(calls[2]))
			}
		})
	}
}

// TestSerialStatusSampler checks the single-engine sampler: periodic
// publishes with the degenerate [at, at] window and a terminating engine
// (the sampler must not keep an otherwise-drained queue alive).
func TestSerialStatusSampler(t *testing.T) {
	board := telemetry.NewBoard()
	s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 11})
	s.AttachStatus(board, 10_000)
	installStatusLoad(t, s)
	res := s.Execute(statusTestHorizon)
	if res.DeliveredPkts == 0 {
		t.Fatal("no traffic delivered")
	}
	if s.Eng.Len() != 0 {
		t.Fatalf("engine did not drain: %d events pending (sampler self-rescheduling?)", s.Eng.Len())
	}
	st, ok := board.Latest()
	if !ok {
		t.Fatal("no status published")
	}
	if st.Seq < 2 {
		t.Errorf("only %d publishes over a 200µs run sampled at 10µs", st.Seq)
	}
	if len(st.Shards) != 1 {
		t.Fatalf("serial snapshot has %d shard entries, want 1", len(st.Shards))
	}
	sh := st.Shards[0]
	if sh.WindowStartNs != sh.AtNs || sh.WindowEndNs != sh.AtNs {
		t.Errorf("serial window not degenerate: at=%d window=[%d, %d]", sh.AtNs, sh.WindowStartNs, sh.WindowEndNs)
	}
	if st.EventsProcessed == 0 || sh.Processed == 0 {
		t.Errorf("snapshot reports no progress: %+v", st)
	}
}

// TestStatusDisabledIdentical pins the exactly-free contract: attaching
// the status plane must not change simulation results for a fixed seed,
// serial or sharded.
func TestStatusDisabledIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		run := func(board *telemetry.Board) Results {
			s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 42, Shards: shards})
			if board != nil {
				s.AttachStatus(board, 10_000)
			}
			installStatusLoad(t, s)
			return s.Execute(statusTestHorizon)
		}
		plain := run(nil)
		observed := run(telemetry.NewBoard())
		// The sampler's final self-scheduled tick may sit after the last
		// traffic event, so the drained clock can legally advance by up to
		// one sampling interval. Everything physical must be identical.
		if observed.Elapsed < plain.Elapsed || observed.Elapsed > plain.Elapsed+10_000 {
			t.Errorf("shards=%d: drained clock %d vs %d, want within one interval",
				shards, observed.Elapsed, plain.Elapsed)
		}
		plain.Elapsed, observed.Elapsed = 0, 0
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("shards=%d: results changed with status attached:\nplain:    %+v\nobserved: %+v",
				shards, plain, observed)
		}
	}
}

// TestAttachStatusNilBoard checks the no-op path: without a board no
// sampler state exists and nothing is scheduled.
func TestAttachStatusNilBoard(t *testing.T) {
	s := MustNew(Experiment{Policy: PolicyAdaptive, Seed: 1})
	before := s.Eng.Len()
	s.AttachStatus(nil, 10_000)
	if s.status != nil {
		t.Error("nil board still built sampler state")
	}
	if s.Eng.Len() != before {
		t.Error("nil board scheduled events")
	}
}

// TestLiveStatsSync checks the cross-goroutine progress feed: after a
// run, the shared counters equal the engine's own totals, and a second
// run folds in only its delta.
func TestLiveStatsSync(t *testing.T) {
	live := &telemetry.LiveStats{}
	prev := DefaultLive
	DefaultLive = live
	defer func() { DefaultLive = prev }()

	s := MustNew(Experiment{Policy: PolicyAdaptive, Seed: 3})
	installStatusLoad(t, s)
	s.Execute(statusTestHorizon)
	if got, want := live.Events.Load(), int64(s.Processed()); got != want {
		t.Errorf("live events %d, want %d", got, want)
	}
	if got, want := live.VirtualNs.Load(), int64(s.Now()); got != want {
		t.Errorf("live virtual time %d, want %d", got, want)
	}
	first := live.Events.Load()

	s2 := MustNew(Experiment{Policy: PolicyAdaptive, Seed: 4})
	installStatusLoad(t, s2)
	s2.Execute(statusTestHorizon)
	if got, want := live.Events.Load(), first+int64(s2.Processed()); got != want {
		t.Errorf("after second run live events %d, want %d", got, want)
	}
}
