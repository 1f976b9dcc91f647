package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Tests of the window-mode rule (ShardGroup.chooseMode) and of what each
// mode costs: inline windows start nothing, idle workers go to sleep.

// TestWindowModeStressEquivalence runs the barrier-stress workload with
// every window inline, every window released, the two alternating, and
// under the rule itself: all four must fire the same events, see the same
// barriers and leave the same engine state as the one-worker run.
func TestWindowModeStressEquivalence(t *testing.T) {
	const hops = 1_500
	for _, shards := range []int{2, 4, 7} {
		ref := runStress(t, shards, 1, hops, nil, allInline)
		for _, procs := range []int{2, 4} {
			for _, mode := range []struct {
				name  string
				force func(uint64) bool
			}{{"inline", allInline}, {"released", allReleased}, {"flipping", flipEvery}, {"rule", nil}} {
				got := runStress(t, shards, procs, hops, nil, mode.force)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("shards=%d procs=%d %s: run differs from the inline one-worker run: %s",
						shards, procs, mode.name, stressDiff(got, ref))
				}
			}
		}
	}
}

// burstActor executes sizes[k] events in window k of a group whose window
// is burstWindow: one driver event at the window's start, which schedules
// the rest of the window's events and the next driver.
type burstActor struct {
	sizes []int
	fired int
}

const burstWindow Time = 1000

func (b *burstActor) HandleEvent(e *Engine, kind uint8, arg uint64) {
	b.fired++
	if kind != 0 {
		return
	}
	for i := 1; i < b.sizes[arg]; i++ {
		e.ScheduleEvent(e.Now()+1, b, 1, 0)
	}
	if next := arg + 1; int(next) < len(b.sizes) {
		e.ScheduleEvent(Time(next)*burstWindow, b, 0, next)
	}
}

// runBursts executes a window-size schedule on shard 0 of a two-shard group
// under procs and returns the mode of every window, as the rule chose it,
// and the counters.
func runBursts(t *testing.T, procs int, sizes []int) ([]bool, WindowModes) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	g := NewShardGroup(2, burstWindow)
	b := &burstActor{sizes: sizes}
	g.Engines[0].ScheduleEvent(0, b, 0, 0)
	var seq []bool
	g.OnBarrier(func(Time) { seq = append(seq, g.released) })
	g.Run(Infinity)
	want := 0
	for _, n := range sizes {
		want += n
	}
	if b.fired != want || len(seq) != len(sizes) {
		t.Fatalf("fired %d events in %d windows, want %d in %d", b.fired, len(seq), want, len(sizes))
	}
	return seq, g.WindowModes()
}

// minReleasedRun is the shortest stretch of released windows the rule can
// produce: entered at a smoothed load of releaseEvents, left below
// inlineEvents, and the average loses at most 2^-loadShift of itself a
// window.
func minReleasedRun() int {
	n := 0
	for load := uint64(releaseEvents << loadShift); load >= inlineEvents<<loadShift; load -= load >> loadShift {
		n++
	}
	return n
}

// TestWindowModeHysteresis pins the rule on synthetic schedules: thin
// windows stay inline, fat ones get released, a schedule alternating
// 1-event and 1000-event windows changes mode exactly once (the average
// settles far above both thresholds), no released stretch is shorter than
// the thresholds and the averaging allow, and the sequence of modes is the
// same at GOMAXPROCS 1, 2 and 4.
func TestWindowModeHysteresis(t *testing.T) {
	repeat := func(n int, pattern ...int) []int {
		var out []int
		for len(out) < n {
			out = append(out, pattern...)
		}
		return out[:n]
	}
	rng := NewRNG(18)
	random := make([]int, 3000)
	for i := range random {
		// Stretches of 1–40 windows of one size class.
		if i == 0 || rng.Intn(20) == 0 {
			random[i] = []int{1, 10, 100, 1000}[rng.Intn(4)]
		} else {
			random[i] = random[i-1]
		}
	}
	minRun := minReleasedRun()
	if minRun < 4 {
		t.Fatalf("the constants allow a released stretch of %d windows", minRun)
	}
	for _, c := range []struct {
		name     string
		sizes    []int
		flips    int // exact, or -1 when only the stretch bound applies
		released bool
	}{
		{"thin", repeat(400, 20), 0, false},
		{"fat", repeat(400, 200), 1, true},
		{"alternating-1-1000", repeat(400, 1, 1000), 1, true},
		{"one-spike", append(repeat(200, 2), append([]int{5000}, repeat(200, 2)...)...), 2, false},
		{"random-stretches", random, -1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq, modes := runBursts(t, 1, c.sizes)
			if modes.Inline+modes.Released != uint64(len(c.sizes)) {
				t.Fatalf("counted %d+%d windows of %d", modes.Inline, modes.Released, len(c.sizes))
			}
			flips, run := 0, 0
			for i, released := range seq {
				if i == 0 && released || i > 0 && released != seq[i-1] {
					flips++
					if !released && run < minRun {
						t.Errorf("released stretch of %d windows ends at window %d, the rule allows no fewer than %d", run, i, minRun)
					}
					run = 0
				}
				run++
			}
			if uint64(flips) != modes.Flips {
				t.Errorf("counter says %d flips, the sequence has %d", modes.Flips, flips)
			}
			if c.flips >= 0 && (flips != c.flips || seq[len(seq)-1] != c.released) {
				t.Errorf("%d flips ending released=%v, want %d ending released=%v", flips, seq[len(seq)-1], c.flips, c.released)
			}
			if c.flips < 0 && flips < 4 {
				t.Errorf("only %d flips: the schedule does not exercise the rule", flips)
			}
			for _, procs := range []int{2, 4} {
				if got, gotModes := runBursts(t, procs, c.sizes); !reflect.DeepEqual(got, seq) || gotModes != modes {
					t.Errorf("GOMAXPROCS=%d: mode sequence or counters differ from GOMAXPROCS=1 (%+v vs %+v)", procs, gotModes, modes)
				}
			}
		})
	}
}

// TestWindowModeInlineStartsNothing pins the two costs the inline mode is
// there to avoid. A Run whose windows all stay inline starts no goroutine;
// and once a released stretch is over its workers do not keep polling:
// during the inline windows that follow they reach the sleep stage of
// gate.await (observed as the epoch gate's sleeper count from inside an
// inline window, so the test waits on the event, not on a clock).
func TestWindowModeInlineStartsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	baseline := runtime.NumGoroutine()

	g := NewShardGroup(4, burstWindow)
	peak := 0
	g.OnBarrier(func(Time) { peak = max(peak, runtime.NumGoroutine()) })
	g.Engines[0].ScheduleEvent(0, &burstActor{sizes: make([]int, 500)}, 0, 0) // one event a window
	g.Run(Infinity)
	if m := g.WindowModes(); m.Released != 0 || m.Inline != 500 {
		t.Fatalf("modes %+v, want 500 inline windows", m)
	}
	if peak > baseline {
		t.Errorf("%d goroutines during an all-inline Run, baseline %d", peak, baseline)
	}

	g = NewShardGroup(4, burstWindow)
	const releasedWindows = 10
	g.forceMode = func(window uint64) bool { return window < releasedWindows }
	windows, asleep := 0, false
	g.OnBarrier(func(Time) {
		windows++
		if windows <= releasedWindows || asleep {
			return
		}
		// An inline window, three workers idle: they have at most
		// spinPolls+yieldPolls polls before they must sleep.
		deadline := time.Now().Add(10 * time.Second)
		for g.epoch.sleepers.Load() != 3 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of 3 idle workers asleep after 10 s of inline windows", g.epoch.sleepers.Load())
			}
			runtime.Gosched()
		}
		asleep = true
	})
	g.Engines[0].ScheduleEvent(0, &burstActor{sizes: make([]int, 100)}, 0, 0)
	g.Run(Infinity)
	if !asleep {
		t.Fatal("no inline window followed the released stretch")
	}
	if m := g.WindowModes(); m.Released != releasedWindows || m.Flips != 2 {
		t.Errorf("modes %+v, want %d released windows and 2 flips", m, releasedWindows)
	}
	waitGoroutines(t, baseline)
}

// TestWindowModeSurvivesSlicedRuns pins that the rule's state lives in the
// group, not in one Run: a schedule cut into many Run calls on the window
// grid chooses the modes of an uninterrupted run.
func TestWindowModeSurvivesSlicedRuns(t *testing.T) {
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 3
		if i >= 100 && i < 200 {
			sizes[i] = 300
		}
	}
	_, whole := runBursts(t, 2, sizes)
	if whole.Flips != 2 {
		t.Fatalf("uninterrupted run: %+v, want two flips", whole)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := NewShardGroup(2, burstWindow)
	g.Engines[0].ScheduleEvent(0, &burstActor{sizes: sizes}, 0, 0)
	for h := 7 * burstWindow; g.Len() > 0; h += 7 * burstWindow {
		g.Run(h)
	}
	if got := g.WindowModes(); got != whole {
		t.Errorf("sliced run chose %+v, uninterrupted %+v", got, whole)
	}
}
