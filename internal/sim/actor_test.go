package sim

import (
	"testing"
	"unsafe"
)

// recorder is a test actor that logs every delivery.
type recorder struct {
	got []struct {
		at   Time
		kind uint8
		arg  uint64
	}
}

func (r *recorder) HandleEvent(e *Engine, kind uint8, arg uint64) {
	r.got = append(r.got, struct {
		at   Time
		kind uint8
		arg  uint64
	}{e.Now(), kind, arg})
}

func TestTypedEventDelivery(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	e.ScheduleEvent(30, r, 2, 99)
	e.ScheduleEvent(10, r, 1, 7)
	e.AfterEvent(20, r, 3, 1<<40)
	e.Run(Infinity)
	want := []struct {
		at   Time
		kind uint8
		arg  uint64
	}{{10, 1, 7}, {20, 3, 1 << 40}, {30, 2, 99}}
	if len(r.got) != len(want) {
		t.Fatalf("got %d deliveries, want %d", len(r.got), len(want))
	}
	for i, w := range want {
		if r.got[i] != w {
			t.Errorf("delivery %d = %+v, want %+v", i, r.got[i], w)
		}
	}
}

// TestTypedAndClosureInterleave checks FIFO ordering at equal timestamps
// across the two scheduling APIs: tie-break is by scheduling order
// regardless of which API scheduled the event.
func TestTypedAndClosureInterleave(t *testing.T) {
	e := NewEngine()
	var order []int
	r := actorFunc(func(e *Engine, kind uint8, arg uint64) {
		order = append(order, int(arg))
	})
	e.Schedule(5, func(e *Engine) { order = append(order, 0) })
	e.ScheduleEvent(5, r, 0, 1)
	e.Schedule(5, func(e *Engine) { order = append(order, 2) })
	e.ScheduleEvent(5, r, 0, 3)
	e.Run(Infinity)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3]", order)
		}
	}
}

type nopActor struct{}

func (nopActor) HandleEvent(e *Engine, kind uint8, arg uint64) {}

type actorFunc func(e *Engine, kind uint8, arg uint64)

func (f actorFunc) HandleEvent(e *Engine, kind uint8, arg uint64) { f(e, kind, arg) }

func TestCancelTypedEvent(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.ScheduleEvent(10, r, 1, 1)
	e.ScheduleEvent(20, r, 2, 2)
	if !e.Cancel(id) {
		t.Fatal("Cancel reported not pending")
	}
	e.Run(Infinity)
	if len(r.got) != 1 || r.got[0].kind != 2 {
		t.Fatalf("got %+v, want only kind-2 delivery", r.got)
	}
}

// ping reschedules itself n times: the steady-state pattern of the network
// hot path (one event firing schedules the next).
type ping struct {
	left int
}

func (p *ping) HandleEvent(e *Engine, kind uint8, arg uint64) {
	if p.left > 0 {
		p.left--
		e.AfterEvent(1, p, 0, arg+1)
	}
}

// TestTypedSchedulingZeroAlloc is the engine-level zero-alloc guard: once
// the free list is warm, scheduling and dispatching typed events must not
// allocate.
func TestTypedSchedulingZeroAlloc(t *testing.T) {
	e := NewEngine()
	// Warm-up: grow the free list and the heap's backing array.
	p := &ping{left: 64}
	e.ScheduleEvent(e.Now(), p, 0, 0)
	e.Run(Infinity)

	avg := testing.AllocsPerRun(100, func() {
		p.left = 100
		e.ScheduleEvent(e.Now(), p, 0, 0)
		e.Run(Infinity)
	})
	if avg != 0 {
		t.Fatalf("typed-event path allocates: %.2f allocs/run, want 0", avg)
	}
}

// TestLenExcludesCancelled pins the Engine.Len contract: cancelled events
// still occupy the internal queue until popped, but are not pending.
func TestLenExcludesCancelled(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	var ids []EventID
	for i := 0; i < 5; i++ {
		ids = append(ids, e.ScheduleEvent(Time(10+i), r, 0, uint64(i)))
	}
	if e.Len() != 5 {
		t.Fatalf("Len = %d, want 5", e.Len())
	}
	e.Cancel(ids[1])
	e.Cancel(ids[3])
	if e.Len() != 3 {
		t.Fatalf("Len after 2 cancels = %d, want 3", e.Len())
	}
	// Double-cancel and stale-cancel must not double-decrement.
	e.Cancel(ids[1])
	if e.Len() != 3 {
		t.Fatalf("Len after double cancel = %d, want 3", e.Len())
	}
	e.Run(Infinity)
	if e.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", e.Len())
	}
	if len(r.got) != 3 {
		t.Fatalf("fired %d events, want 3", len(r.got))
	}
}

// TestRunRecyclesCancelled is the regression test for the cancelled-peek
// leak: Run's horizon peek used to pop cancelled events without recycling
// them, so cancel-heavy runs defeated the free list.
func TestRunRecyclesCancelled(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	const n = 50
	for i := 0; i < n; i++ {
		id := e.ScheduleEvent(Time(i), r, 0, 0)
		e.Cancel(id)
	}
	// A horizon run over only-cancelled events must return every record to
	// the free list via the peek branch.
	e.Run(Infinity)
	if e.freeN != n {
		t.Fatalf("free list has %d records after draining %d cancelled events, want %d", e.freeN, n, n)
	}
}

// TestFreelistTracksQueueDepth checks that the free-list cap follows the
// observed queue high-water mark instead of the old fixed 1024 ceiling.
func TestFreelistTracksQueueDepth(t *testing.T) {
	e := NewEngine()
	r := &nopActor{}
	const depth = 5000
	for i := 0; i < depth; i++ {
		e.ScheduleEvent(Time(i), r, 0, 0)
	}
	e.Run(Infinity)
	if e.freeN != depth {
		t.Fatalf("free list kept %d of %d records, want all (cap should track peak depth %d)", e.freeN, depth, depth)
	}
	linked := 0
	for ev := e.free; ev != nil; ev = ev.next {
		linked++
	}
	if linked != e.freeN {
		t.Fatalf("free list links %d records, counts %d", linked, e.freeN)
	}
	// And with the list warm, re-running the same depth allocates nothing.
	avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < depth; i++ {
			e.ScheduleEvent(e.Now()+Time(i), r, 0, 0)
		}
		e.Run(Infinity)
	})
	if avg != 0 {
		t.Fatalf("warmed deep run allocates %.2f/run, want 0", avg)
	}
}

// TestLayoutSizes pins the event record at one cache line: every hop of a
// packet moves one, and the wheel slots, tick lists and the free list link
// the records themselves through event.next. It also pins the wheel (fine
// ring, coarse ticks, bitmaps, counters) within the 10,880-byte size class
// each engine pays for, so a 64-node cell's engines do not grow a class.
func TestLayoutSizes(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s > 64 {
		t.Errorf("event is %d bytes, want at most 64", s)
	}
	if s := unsafe.Sizeof(wheel{}); s > 10880 {
		t.Errorf("wheel is %d bytes, want at most 10880", s)
	}
}
