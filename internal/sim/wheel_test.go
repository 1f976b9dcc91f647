package sim

import (
	"fmt"
	"testing"
)

// storm drives an engine through a randomized self-rescheduling event
// storm and records the exact firing order. The workload mixes delays in
// each of the wheel's tiers (fine slots, coarse ticks, the far heap),
// same-time bursts (exercising FIFO tie-break), closure events, and
// cancellations in every tier.
type stormActor struct {
	id    int
	rng   *RNG
	log   *[]string
	depth int
	held  EventID
	// check, when set, inspects the engine as each event starts (after
	// fire's pop and far-heap migration) and after each push and cancel.
	check func(e *Engine)
}

func (s *stormActor) checked(e *Engine) {
	if s.check != nil {
		s.check(e)
	}
}

func (s *stormActor) HandleEvent(e *Engine, kind uint8, arg uint64) {
	s.checked(e)
	*s.log = append(*s.log, fmt.Sprintf("%d@%d k%d a%d", s.id, e.Now(), kind, arg))
	if s.depth <= 0 {
		return
	}
	s.depth--
	// Near events: land within the wheel span.
	for i := 0; i < 2; i++ {
		d := Time(s.rng.Intn(500))
		e.AfterEvent(d, s, uint8(i), arg+1)
		s.checked(e)
	}
	// Same-time burst: exercises intra-slot FIFO order.
	if s.rng.Intn(4) == 0 {
		e.AfterEvent(0, s, 7, arg)
		s.checked(e)
	}
	// Coarse event: beyond the fine ring, filed in a coarse tick and
	// cascaded back in order.
	if s.rng.Intn(3) == 0 {
		e.AfterEvent(Time(9000+s.rng.Intn(40000)), s, 9, arg)
		s.checked(e)
	}
	// Far event: beyond the coarse span, must overflow to the heap and
	// migrate back in order.
	if s.rng.Intn(8) == 0 {
		e.AfterEvent(coarseSpan+Time(s.rng.Intn(coarseSpan)), s, 10, arg)
		s.checked(e)
	}
	// Cancellation churn: arm an event in one of the three tiers and
	// cancel it half the time.
	if s.held.Valid() && s.rng.Intn(2) == 0 {
		e.Cancel(s.held)
		s.held = EventID{}
	} else {
		d := Time(s.rng.Intn(2000))
		switch s.rng.Intn(4) {
		case 0:
			d += 2 * wheelSpan
		case 1:
			d += coarseSpan
		}
		s.held = e.AfterEvent(d, s, 8, arg)
	}
	s.checked(e)
	// Closure events interleave with typed ones.
	if s.rng.Intn(5) == 0 {
		at := e.Now() + Time(s.rng.Intn(300))
		id := s.id
		e.Schedule(at, func(e *Engine) {
			*s.log = append(*s.log, fmt.Sprintf("fn%d@%d", id, e.Now()))
		})
		s.checked(e)
	}
}

// newStorm returns a heap- or wheel-mode engine seeded with the storm's
// initial events; log receives the firing order and check, which may be
// nil, is the actors' stormActor.check.
func newStorm(wheelMode bool, seed uint64, log *[]string, check func(*Engine)) *Engine {
	e := NewEngine()
	if wheelMode {
		e.EnableWheel()
	}
	for i := 0; i < 8; i++ {
		a := &stormActor{id: i, rng: NewRNG(seed + uint64(i)), log: log, depth: 40, check: check}
		e.ScheduleEvent(Time(i*13), a, 0, 0)
	}
	return e
}

func runStorm(t *testing.T, wheelMode bool, seed uint64, check func(*Engine)) ([]string, EngineStats) {
	t.Helper()
	var log []string
	e := newStorm(wheelMode, seed, &log, check)
	e.Run(Infinity)
	return log, e.Stats()
}

// tierCensus counts, over the checks it is called from, the cancelled
// records seen waiting in each tier of a wheel engine: fine slots, coarse
// ticks and the far heap.
type tierCensus struct{ fine, coarse, far int }

func (c *tierCensus) check(e *Engine) {
	w := e.wheel
	walk := func(tails []*event) (n int) {
		for _, tail := range tails {
			if tail == nil {
				continue
			}
			for ev := tail.next; ; ev = ev.next {
				if ev.cancelled {
					n++
				}
				if ev == tail {
					break
				}
			}
		}
		return n
	}
	c.fine += walk(w.slots[:])
	c.coarse += walk(w.ticks[:])
	for _, ev := range e.queue {
		if ev.cancelled {
			c.far++
		}
	}
}

// diffLogs fails the test at the first line where two transcripts differ.
func diffLogs(t *testing.T, what string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: divergence at line %d: heap %q, wheel %q", what, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: heap transcript has %d lines, wheel %d", what, len(want), len(got))
	}
}

// TestWheelMatchesHeap pins that the windowed-wheel scheduler fires
// events in exactly the heap's (time, seq) order, including same-time
// bursts, coarse-tick cascades, far-heap migration, and cancellations in
// every tier.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		heapLog, _ := runStorm(t, false, seed, nil)
		var census tierCensus
		wheelLog, st := runStorm(t, true, seed, census.check)
		diffLogs(t, fmt.Sprintf("seed %d", seed), heapLog, wheelLog)
		if len(heapLog) < 100 {
			t.Fatalf("seed %d: storm too small to be meaningful (%d events)", seed, len(heapLog))
		}
		// Every tier must have held live and cancelled records.
		if st.Cascades == 0 || st.FarOverflows == 0 || st.FarMigrations == 0 {
			t.Fatalf("seed %d: storm missed a tier: %+v", seed, st)
		}
		if census.fine == 0 || census.coarse == 0 || census.far == 0 {
			t.Fatalf("seed %d: no cancelled record waited in some tier: %+v", seed, census)
		}
	}
}

// slotNs and tickNs are the fine slot and coarse tick widths; the
// contract tests place their corner cases relative to them so they stay on
// the corners if the geometry moves.
const (
	slotNs = Time(1) << wheelSlotShift
	tickNs = Time(1) << tickShift
)

// slicedHorizons chops the storm into Run calls whose horizons land
// mid-slot, exactly on slot and tick boundaries, inside regions the storm
// leaves empty, one ring span apart, at the coarse span's edge, and — the
// last three — past a full drain.
var slicedHorizons = []Time{
	slotNs - 1, slotNs, slotNs + 1, 100, 32 * slotNs, 64*slotNs + 3, 128 * slotNs, 129 * slotNs,
	tickNs - 1, tickNs, tickNs + 1, 5000, wheelSpan, wheelSpan + 1, 2*wheelSpan - 1, 3 * tickNs,
	20_000, 20_000 + slotNs, 60_000, 100_000, coarseSpan - 1, coarseSpan, coarseSpan + tickNs + 1,
	2 * coarseSpan, 5*coarseSpan + 3, 50_000_000, 50_000_001, 200_000_000,
}

// runSliced drives the storm through slicedHorizons and returns a
// transcript of everything the engine contract makes observable: the
// firing order, and after every slice Run's count, Now, Len and
// NextEventTime. Between slices it schedules at Now(), Now()+1, past the
// fine ring and past the coarse span, and cancels a fine-slot, a
// coarse-tick, a far-heap and an already-fired ID, recording what Cancel
// reported. check runs as in the storm's actors, and after each slice,
// schedule and cancel here.
func runSliced(wheelMode bool, seed uint64, check func(*Engine)) []string {
	var log []string
	e := newStorm(wheelMode, seed, &log, check)
	probe := &stormActor{id: 99, log: &log, check: check}
	after := func(id EventID) EventID { probe.checked(e); return id }
	cancel := func(id EventID) bool { ok := e.Cancel(id); probe.checked(e); return ok }
	var firedID EventID
	for i, h := range slicedHorizons {
		n := e.Run(h)
		probe.checked(e)
		log = append(log, fmt.Sprintf("slice %d: ran=%d now=%d len=%d next=%d", h, n, e.Now(), e.Len(), e.NextEventTime()))
		arg := uint64(i)
		atNow := after(e.ScheduleEvent(e.Now(), probe, 20, arg))
		after(e.ScheduleEvent(e.Now()+1, probe, 21, arg))
		after(e.ScheduleEvent(e.Now()+wheelSpan+5, probe, 22, arg))
		after(e.ScheduleEvent(e.Now()+coarseSpan+5, probe, 25, arg))
		ring := after(e.ScheduleEvent(e.Now()+40, probe, 23, arg))
		coarse := after(e.ScheduleEvent(e.Now()+3*wheelSpan, probe, 24, arg))
		far := after(e.ScheduleEvent(e.Now()+2*coarseSpan, probe, 26, arg))
		log = append(log, fmt.Sprintf("cancel ring=%v coarse=%v far=%v fired=%v again=%v len=%d next=%d",
			cancel(ring), cancel(coarse), cancel(far), cancel(firedID), cancel(ring), e.Len(), e.NextEventTime()))
		firedID = atNow
	}
	e.Run(Infinity)
	probe.checked(e)
	log = append(log, fmt.Sprintf("drained: now=%d len=%d next=%d", e.Now(), e.Len(), e.NextEventTime()))
	return log
}

// TestWheelMatchesHeapSliced pins the whole serial-engine contract, not
// only event order: run in slices, the wheel must report the same clock
// (the last executed event, never the horizon), pending count and next
// event time as the heap, and must accept scheduling at any time >= Now()
// between slices — including after a full drain. In both modes farAt must
// be the far heap's earliest time whenever the heap holds an event, and
// the heap must have held one at some check.
func TestWheelMatchesHeapSliced(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		logs := [2][]string{}
		for i, wheelMode := range []bool{false, true} {
			drift, held := "", 0
			check := func(e *Engine) {
				if len(e.queue) == 0 {
					return
				}
				held++
				if drift == "" && e.farAt != e.queue[0].at {
					drift = fmt.Sprintf("now %d: farAt %d, heap top at %d of %d", e.Now(), e.farAt, e.queue[0].at, len(e.queue))
				}
			}
			logs[i] = runSliced(wheelMode, seed, check)
			if drift != "" || held == 0 {
				t.Fatalf("seed %d wheel=%v: %q after %d checks with a non-empty heap", seed, wheelMode, drift, held)
			}
		}
		diffLogs(t, fmt.Sprintf("seed %d", seed), logs[0], logs[1])
	}
}

// stepActor exercises the corners a stepped and a whole Run must agree
// on: events inserted into the slot being drained (same time, and 3 ns
// ahead — the chain starts on a slot boundary, so that lands inside the
// same slot).
type stepActor struct {
	log   *[]string
	depth int
}

func (s *stepActor) HandleEvent(e *Engine, kind uint8, arg uint64) {
	*s.log = append(*s.log, fmt.Sprintf("step@%d k%d a%d", e.Now(), kind, arg))
	if s.depth <= 0 {
		return
	}
	s.depth--
	e.AfterEvent(0, s, 1, arg+1)
	e.AfterEvent(3, s, 2, arg+1)
	e.AfterEvent(Time(wheelSpan+arg), s, 3, arg+1)
}

// TestStepMatchesRun pins that a wheel engine stepped one timestamp at a
// time, Run re-entered with a horizon just past the next event, executes
// exactly what the same engine does under one Run, and that both match the
// heap.
func TestStepMatchesRun(t *testing.T) {
	drive := func(wheelMode, step bool) []string {
		var log []string
		e := newStorm(wheelMode, 3, &log, nil)
		e.ScheduleEvent(slotNs, &stepActor{log: &log, depth: 30}, 0, 0)
		if step {
			for e.Len() > 0 {
				e.Run(e.NextEventTime() + 1)
			}
		} else {
			e.Run(Infinity)
		}
		return append(log, fmt.Sprintf("end: now=%d processed=%d len=%d", e.Now(), e.Processed, e.Len()))
	}
	want := drive(false, false)
	if len(want) < 200 {
		t.Fatalf("workload too small to be meaningful (%d lines)", len(want))
	}
	diffLogs(t, "heap Step", want, drive(false, true))
	diffLogs(t, "wheel Run", want, drive(true, false))
	diffLogs(t, "wheel Step", want, drive(true, true))
}

// TestWheelHorizon pins Run's exclusive-horizon semantics in wheel mode.
func TestWheelHorizon(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	var fired []Time
	for _, at := range []Time{5, 99, 100, 101, 20000} {
		at := at
		e.Schedule(at, func(e *Engine) { fired = append(fired, e.Now()) })
	}
	e.Run(100)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 99 {
		t.Fatalf("Run(100) fired %v, want [5 99]", fired)
	}
	if e.Len() != 3 {
		t.Fatalf("pending after Run(100) = %d, want 3", e.Len())
	}
	if e.Now() != 99 {
		t.Fatalf("Now after Run(100) = %v, want the last executed event (99)", e.Now())
	}
	e.Run(Infinity)
	if len(fired) != 5 || fired[4] != 20000 {
		t.Fatalf("drain fired %v", fired)
	}
}

// TestWheelAdvanceTo pins cursor jumps across idle spans, including far
// events becoming near after a jump.
func TestWheelAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	var fired []Time
	e.Schedule(1_000_000, func(e *Engine) { fired = append(fired, e.Now()) })
	e.Run(10) // nothing below 10
	if len(fired) != 0 {
		t.Fatalf("early fire: %v", fired)
	}
	e.AdvanceTo(999_999)
	if got := e.NextEventTime(); got != 1_000_000 {
		t.Fatalf("NextEventTime after jump = %v", got)
	}
	e.Run(Infinity)
	if len(fired) != 1 || fired[0] != 1_000_000 {
		t.Fatalf("fired %v, want [1000000]", fired)
	}
	if e.Now() != 1_000_000 {
		t.Fatalf("Now = %v", e.Now())
	}
}

// TestWheelCancel pins that wheel-resident and far-heap events are both
// cancellable and that cancelled records do not fire after slot reuse.
func TestWheelCancel(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	fired := 0
	count := func(e *Engine) { fired++ }
	near := e.Schedule(50, count)
	far := e.Schedule(50_000, count)
	e.Schedule(60, count)
	if !e.Cancel(near) {
		t.Fatal("near cancel failed")
	}
	if !e.Cancel(far) {
		t.Fatal("far cancel failed")
	}
	if e.Cancel(near) {
		t.Fatal("double cancel succeeded")
	}
	e.Run(Infinity)
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if e.Len() != 0 {
		t.Fatalf("pending = %d", e.Len())
	}
}

// TestWheelAdvanceToMatchesHeap drives the storm the way the shard group
// does at barriers: before each step the clock jumps by one tick, by
// several ticks or by more than the coarse span — capped at the next
// event, which AdvanceTo's contract requires — and fresh events are filed
// in every tier from the new position. The wheel must report the same
// clock, pending count, next event time and firing order as the heap, and
// must have made each kind of jump.
func TestWheelAdvanceToMatchesHeap(t *testing.T) {
	jumps := []Time{tickNs, 5*tickNs + 3, 1, tickNs - 1, 2 * tickNs}
	drive := func(wheelMode bool, seed uint64) ([]string, [3]int) {
		var log []string
		var made [3]int // jumps of one tick, of 2 to coarseTicks-1, of more
		e := newStorm(wheelMode, seed, &log, nil)
		probe := &stormActor{id: 99, log: &log}
		for i := 0; e.Len() > 0; i++ {
			next := e.NextEventTime()
			from := e.Now()
			jump := jumps[i%len(jumps)]
			if next-from > coarseSpan+tickNs {
				jump = coarseSpan + tickNs // a gap past the span: cross it
			}
			e.AdvanceTo(min(next, from+jump))
			switch d := tickOf(e.Now()) - tickOf(from); {
			case d == 1:
				made[0]++
			case d > 1 && d < coarseTicks:
				made[1]++
			case d >= coarseTicks:
				made[2]++
			}
			log = append(log, fmt.Sprintf("advanced %d -> %d: len=%d next=%d", from, e.Now(), e.Len(), e.NextEventTime()))
			if i < 40 && i%4 == 0 {
				arg := uint64(i)
				e.ScheduleEvent(e.Now(), probe, 20, arg)
				e.ScheduleEvent(e.Now()+tickNs, probe, 21, arg)
				e.ScheduleEvent(e.Now()+7*tickNs+1, probe, 22, arg)
				e.ScheduleEvent(e.Now()+5*coarseSpan, probe, 23, arg)
			}
			e.Run(e.NextEventTime() + 1)
		}
		return append(log, fmt.Sprintf("end: now=%d processed=%d", e.Now(), e.Processed)), made
	}
	for seed := uint64(1); seed <= 3; seed++ {
		want, _ := drive(false, seed)
		got, made := drive(true, seed)
		diffLogs(t, fmt.Sprintf("seed %d", seed), want, got)
		if made[0] == 0 || made[1] == 0 || made[2] == 0 {
			t.Fatalf("seed %d: jumps of one tick, several ticks and past the span: %v, want each", seed, made)
		}
	}
}

// coarsePing keeps n events in flight, each rescheduling itself a few
// ticks ahead: every event is filed in a coarse tick and cascaded into the
// fine ring before it fires.
type coarsePing struct{ left int }

func (p *coarsePing) HandleEvent(e *Engine, kind uint8, arg uint64) {
	if p.left > 0 {
		p.left--
		e.AfterEvent(3*tickNs+Time(arg%64), p, 0, arg+1)
	}
}

// TestCoarseTierZeroAlloc is the coarse tier's zero-alloc guard: once the
// free list is warm, scheduling through coarse ticks and cascading them
// allocates nothing.
func TestCoarseTierZeroAlloc(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	p := &coarsePing{}
	round := func() {
		p.left = 2000
		for i := uint64(0); i < 16; i++ {
			e.ScheduleEvent(e.Now(), p, 0, i*5)
		}
		e.Run(Infinity)
	}
	round() // warm-up: grow the free list
	before := e.Stats().Cascades
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("coarse-tier scheduling allocates %.2f times per round, want 0", avg)
	}
	if e.Stats().Cascades-before < 20*2000 {
		t.Fatalf("only %d records cascaded: the rounds missed the coarse tier", e.Stats().Cascades-before)
	}
}
