package sim

import (
	"fmt"
	"math"
	"testing"
)

// Reserved sequence numbers: an event whose number was taken with
// ReserveSeq and whose record is created later with ScheduleReserved must
// fire exactly where the eagerly scheduled event would have, and leave
// every other event's key alone.

// reservation is an event that so far exists only as its key.
type reservation struct {
	at    Time
	seq   uint64
	actor *lazyActor
	kind  uint8
	arg   uint64
	// matAt is the instant from which the record may be created.
	matAt Time
}

// lazyWorld runs one random schedule. plan draws the schedule itself and is
// consumed identically whether or not events are reserved; dice, when
// non-nil, picks the events to reserve and when to materialise them.
type lazyWorld struct {
	plan, dice *RNG
	budget     int
	actors     []*lazyActor
	pending    []reservation
	log        []string
}

type lazyActor struct {
	w  *lazyWorld
	id int
}

func (a *lazyActor) HandleEvent(e *Engine, kind uint8, arg uint64) {
	w := a.w
	w.log = append(w.log, fmt.Sprintf("%d@%d#%d k%d", a.id, e.now, e.curSeq, kind))
	for i, n := 0, 1+w.plan.Intn(3); i < n && w.budget > 0; i++ {
		w.budget--
		var d Time
		switch w.plan.Intn(5) {
		case 0: // same timestamp: lands behind the head of the slot being drained
		case 1:
			d = Time(w.plan.Intn(int(slotNs)))
		case 2:
			d = Time(w.plan.Intn(3000))
		case 3: // beyond the ring: through a coarse tick
			d = wheelSpan + Time(w.plan.Intn(30_000))
		case 4: // beyond the coarse span: through the far heap
			d = coarseSpan + Time(w.plan.Intn(30_000))
		}
		w.schedule(e, e.now+d, w.actors[w.plan.Intn(len(w.actors))], uint8(i), arg+1)
	}
	w.materialise(e)
}

func (w *lazyWorld) schedule(e *Engine, at Time, a *lazyActor, kind uint8, arg uint64) {
	if w.dice == nil || w.dice.Intn(2) == 0 {
		e.ScheduleEvent(at, a, kind, arg)
		return
	}
	w.pending = append(w.pending, reservation{
		at: at, seq: e.ReserveSeq(), actor: a, kind: kind, arg: arg,
		matAt: e.now + Time(w.dice.Intn(int(at-e.now)+1)),
	})
}

// materialise creates the records that are due: those whose random instant
// has come, and — the last possible moment — those that would otherwise
// pass before the next existing event gives another chance.
func (w *lazyWorld) materialise(e *Engine) {
	next := e.peek()
	keep := w.pending[:0]
	for _, r := range w.pending {
		if r.matAt <= e.now || next == nil || r.at < next.at || r.at == next.at && r.seq < next.seq {
			e.ScheduleReserved(r.at, r.seq, r.actor, r.kind, r.arg)
		} else {
			keep = append(keep, r)
		}
	}
	w.pending = keep
}

// runLazyWorld executes the schedule drawn from seed, sliced at horizons,
// and returns the firing log followed by the final sequence counter.
func runLazyWorld(wheelMode, reserve bool, seed uint64, horizons []Time) []string {
	e := NewEngine()
	if wheelMode {
		e.EnableWheel()
	}
	w := &lazyWorld{plan: NewRNG(seed), budget: 3000}
	if reserve {
		w.dice = NewRNG(seed ^ 0xd1ce)
	}
	for i := 0; i < 6; i++ {
		w.actors = append(w.actors, &lazyActor{w: w, id: i})
	}
	for _, a := range w.actors {
		w.schedule(e, Time(a.id*7), a, 0, 0)
	}
	w.materialise(e)
	for _, h := range horizons {
		e.Run(h)
	}
	e.Run(Infinity)
	return append(w.log, fmt.Sprintf("seq=%d pending=%d unmaterialised=%d", e.Seq(), e.Len(), len(w.pending)))
}

func TestReservedMatchesEager(t *testing.T) {
	for _, wheelMode := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			eager := runLazyWorld(wheelMode, false, seed, nil)
			if len(eager) < 1000 {
				t.Fatalf("schedule too small to mean anything: %d events", len(eager))
			}
			what := fmt.Sprintf("wheel=%v seed %d", wheelMode, seed)
			diffLogs(t, what, eager, runLazyWorld(wheelMode, true, seed, nil))
			diffLogs(t, what+" sliced", eager, runLazyWorld(wheelMode, true, seed, slicedHorizons))
		}
	}
}

// probeActor runs fn inside an event.
type probeActor func(e *Engine)

func (p probeActor) HandleEvent(e *Engine, _ uint8, _ uint64) { p(e) }

func TestReservedPassedTruthTable(t *testing.T) {
	for _, wheelMode := range []bool{false, true} {
		e := NewEngine()
		if wheelMode {
			e.EnableWheel()
		}
		expect := func(where string, at Time, seq uint64, want bool) {
			t.Helper()
			if got := e.Passed(at, seq); got != want {
				t.Errorf("wheel=%v %s: Passed(%d, %d) = %v, want %v", wheelMode, where, at, seq, got, want)
			}
		}
		// A fresh engine has fired nothing, not even at time zero.
		expect("fresh", 0, 0, false)
		expect("fresh", 0, math.MaxUint64, false)

		before := e.ReserveSeq() // 0
		var own uint64
		e.ScheduleEvent(10, probeActor(func(e *Engine) {
			own = e.curSeq
			expect("in handler", 9, math.MaxUint64, true)
			expect("in handler", 10, before, true)
			expect("in handler", 10, own+1, false)
			expect("in handler", 11, 0, false)
		}), 0, 0)
		after := e.ReserveSeq()
		e.ScheduleEvent(50, probeActor(func(*Engine) {}), 0, 0)

		// Between Run slices the clock parks at the last event fired, and
		// so does the firing order: same-time keys behind it have passed,
		// those ahead have not.
		e.Run(20)
		if own != before+1 || after != own+1 {
			t.Fatalf("sequence numbers %d, %d, %d are not consecutive", before, own, after)
		}
		expect("between slices", 10, before, true)
		expect("between slices", 10, after, false)
		expect("between slices", 9, after, true)
		expect("between slices", 20, 0, false)
		// The key ahead of the firing order is still schedulable, the one
		// behind it is not.
		fired := false
		e.ScheduleReserved(10, after, probeActor(func(*Engine) { fired = true }), 0, 0)
		e.Run(20)
		if !fired {
			t.Errorf("wheel=%v: event materialised at the parked instant did not fire", wheelMode)
		}

		// AdvanceTo moves to an instant at which nothing has fired.
		e.AdvanceTo(30)
		expect("after AdvanceTo", 29, math.MaxUint64, true)
		expect("after AdvanceTo", 30, 0, false)
		expect("after AdvanceTo", 30, math.MaxUint64, false)
	}
}

func TestScheduleReservedPassedPanics(t *testing.T) {
	for _, wheelMode := range []bool{false, true} {
		e := NewEngine()
		if wheelMode {
			e.EnableWheel()
		}
		early := e.ReserveSeq()
		e.ScheduleEvent(10, probeActor(func(*Engine) {}), 0, 0)
		e.Run(Infinity)
		for _, key := range []struct {
			at  Time
			seq uint64
		}{{9, 99}, {10, early}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("wheel=%v: ScheduleReserved(%d, %d) after (10, 1) fired did not panic", wheelMode, key.at, key.seq)
					}
				}()
				e.ScheduleReserved(key.at, key.seq, probeActor(func(*Engine) {}), 0, 0)
			}()
		}
	}
}

// TestReservedBehindHeadEveryTier materialises a reserved key after a
// later-numbered event at the same instant is already filed, in each of
// the wheel's tiers: the reserved record must fire first wherever it lands.
func TestReservedBehindHeadEveryTier(t *testing.T) {
	for _, at := range []Time{5, 3*tickNs + 7, coarseSpan + 3*tickNs} {
		for _, wheelMode := range []bool{false, true} {
			e := NewEngine()
			if wheelMode {
				e.EnableWheel()
			}
			var order []string
			mark := func(name string) probeActor {
				return func(*Engine) { order = append(order, name) }
			}
			early := e.ReserveSeq()
			e.ScheduleEvent(at, mark("later"), 0, 0)
			e.ScheduleEvent(at+1, mark("after"), 0, 0)
			e.ScheduleReserved(at, early, mark("reserved"), 0, 0)
			e.Run(Infinity)
			if got := fmt.Sprint(order); got != "[reserved later after]" {
				t.Errorf("wheel=%v at %d: fired %s, want [reserved later after]", wheelMode, at, got)
			}
		}
	}
}
