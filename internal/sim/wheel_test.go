package sim

import (
	"fmt"
	"testing"
)

// storm drives an engine through a randomized self-rescheduling event
// storm and records the exact firing order. The workload mixes near and
// far delays (exercising ring slots and the overflow heap), same-time
// bursts (exercising FIFO tie-break), closure events, and cancellations.
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
	// Far event: beyond the wheel span, must overflow to the heap and
	// migrate back in order.
	if s.rng.Intn(3) == 0 {
		e.AfterEvent(Time(9000+s.rng.Intn(40000)), s, 9, arg)
		s.checked(e)
	}
	// Cancellation churn: arm an event and cancel it half the time.
	if s.held.Valid() && s.rng.Intn(2) == 0 {
		e.Cancel(s.held)
		s.held = EventID{}
	} else {
		s.held = e.AfterEvent(Time(s.rng.Intn(2000)), s, 8, arg)
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

func runStorm(t *testing.T, wheelMode bool, seed uint64) []string {
	t.Helper()
	var log []string
	newStorm(wheelMode, seed, &log, nil).Run(Infinity)
	return log
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
// bursts, far-heap migration, and cancellations.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		heapLog := runStorm(t, false, seed)
		wheelLog := runStorm(t, true, seed)
		diffLogs(t, fmt.Sprintf("seed %d", seed), heapLog, wheelLog)
		if len(heapLog) < 100 {
			t.Fatalf("seed %d: storm too small to be meaningful (%d events)", seed, len(heapLog))
		}
	}
}

// slotNs is the ring's slot width; the contract tests place their corner
// cases relative to it so they stay on the corners if the geometry moves.
const slotNs = Time(1) << wheelSlotShift

// slicedHorizons chops the storm into Run calls whose horizons land
// mid-slot, exactly on slot boundaries, inside regions the storm leaves
// empty, one ring span apart, and — the last three — past a full drain.
var slicedHorizons = []Time{
	slotNs - 1, slotNs, slotNs + 1, 100, 32 * slotNs, 64*slotNs + 3, 128 * slotNs, 129 * slotNs, 5000,
	wheelSpan, wheelSpan + 1, 2*wheelSpan - 1, 20_000, 20_000 + slotNs, 60_000, 100_000,
	1_000_000, 1_000_001, 50_000_000,
}

// runSliced drives the storm through slicedHorizons and returns a
// transcript of everything the engine contract makes observable: the
// firing order, and after every slice Run's count, Now, Len and
// NextEventTime. Between slices it schedules at Now(), Now()+1 and past
// the ring span, and cancels a ring-resident, a far-heap and an
// already-fired ID, recording what Cancel reported. check runs as in the
// storm's actors, and after each slice, schedule and cancel here.
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
		ring := after(e.ScheduleEvent(e.Now()+40, probe, 23, arg))
		far := after(e.ScheduleEvent(e.Now()+3*wheelSpan, probe, 24, arg))
		log = append(log, fmt.Sprintf("cancel ring=%v far=%v fired=%v again=%v len=%d next=%d",
			cancel(ring), cancel(far), cancel(firedID), cancel(ring), e.Len(), e.NextEventTime()))
		firedID = atNow
	}
	e.RunAll()
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

// stepActor exercises the corners Step and Run must agree on: events
// inserted into the slot being drained (same time, and 3 ns ahead — the
// chain starts on a slot boundary, so that lands inside the same slot),
// and Stop called from a handler.
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
	if arg%3 == 0 {
		e.Stop()
	}
}

// TestStepMatchesRun pins that a wheel engine stepped event by event
// executes exactly what the same engine does under Run (re-entered after
// every Stop), and that both match the heap.
func TestStepMatchesRun(t *testing.T) {
	drive := func(wheelMode, step bool) []string {
		var log []string
		e := newStorm(wheelMode, 3, &log, nil)
		e.ScheduleEvent(slotNs, &stepActor{log: &log, depth: 30}, 0, 0)
		if step {
			for e.Step() {
			}
		} else {
			for e.Len() > 0 {
				e.Run(Infinity)
			}
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
