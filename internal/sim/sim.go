// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine replaces the OPNET Modeler kernel used in the paper's
// evaluation (thesis §4.1): it provides an ordered event queue, a virtual
// clock, and cancellable timers. Components (routers, NICs, traffic sources)
// are modelled as callbacks scheduled on the engine, mirroring OPNET's
// finite-state-machine processes.
//
// The queue has two interchangeable schedulers with one contract (same
// (time, seq) firing order, same Now/Len/Step/Run/Cancel behaviour): the
// windowed wheel (wheel.go, EnableWheel), which every engine built by the
// runner uses, and the plain binary heap of a bare NewEngine, kept as the
// wheel's reference implementation and far-overflow store.
//
// Two scheduling APIs coexist:
//
//   - The typed-event (actor) API — ScheduleEvent/AfterEvent — delivers a
//     (kind, arg) pair to a long-lived Actor. Event records are recycled
//     through a free list, so steady-state scheduling on this path performs
//     zero allocations. All hot-path components (ports, routers, NICs,
//     traffic sources) use it.
//   - The closure API — Schedule/After — remains as a compatibility shim
//     for cold paths (setup, experiment scripting, tests) where a captured
//     environment is worth one allocation.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a simulation is
// a pure function of its configuration and RNG seed.
//
// Reserved sequence numbers: a component that knows an event will most
// likely be a no-op (a link-free event nobody waits for) need not pay for
// it. ReserveSeq consumes the sequence number the event would have had
// without creating a record, so every other event keeps its (time, seq)
// key; Passed tells whether the event would already have fired — the key
// lies before the event being executed, whose sequence number fire keeps
// in curSeq; and ScheduleReserved creates the record late, under the
// reserved key, once somebody does wait. The schedulers order by key, not
// by insertion, so the late record fires exactly where the early one
// would have, and a firing order with the elided no-ops removed is the
// firing order of everything else, unchanged.
package sim

import "fmt"

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Common duration units, all expressed in Time (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a timestamp later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// String renders the time in microseconds for log readability.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/1000.0)
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Handler is a scheduled event callback. It runs at its scheduled time with
// the engine as argument so it can schedule follow-up events.
type Handler func(e *Engine)

// Actor receives typed events. kind and arg are opaque to the engine; each
// actor defines its own kind space. Delivering to a persistent object with a
// payload word — instead of a fresh closure — is what makes the hot path
// allocation-free.
type Actor interface {
	HandleEvent(e *Engine, kind uint8, arg uint64)
}

// HandleEvent makes a closure an Actor, so Schedule/After events ride the
// same record layout and dispatch as typed ones (a func value is
// pointer-shaped: storing it in the interface does not allocate).
func (h Handler) HandleEvent(e *Engine, _ uint8, _ uint64) { h(e) }

// event is a queue entry. seq breaks timestamp ties deterministically.
type event struct {
	at  Time
	seq uint64
	// actor receives (kind, arg) when the event fires; a closure scheduled
	// through Schedule/After is stored here as a Handler.
	actor Actor
	arg   uint64
	// next links ring-resident events into their wheel slot's list and
	// recycled records into the free list: a record is in one or neither.
	next      *event
	kind      uint8
	cancelled bool
	index     int32 // heap index when >= 0; idxPopped / idxWheel otherwise
	// gen guards recycled records: an EventID from a previous life of this
	// record must not cancel its current occupant.
	gen uint32
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	ev  *event
	gen uint32
}

// Valid reports whether the ID refers to a scheduled (possibly already
// fired) event.
func (id EventID) Valid() bool { return id.ev != nil }

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// curSeq is the sequence number of the event being (or last) executed
	// at now — with now, the position the firing order has reached. Zero
	// when no event has fired at now (fresh engine, after AdvanceTo).
	curSeq uint64
	queue  []*event
	// farAt is queue[0].at while the heap is non-empty, kept by heapPush
	// and heapPop so that the wheel's per-event migrateFar check reads no
	// event record.
	farAt   Time
	stopped bool
	// pending counts scheduled, not-yet-fired, not-cancelled events; the
	// queue itself may additionally hold cancelled records awaiting pop.
	pending int
	// peakQueue tracks the high-water mark of the queue (heap length in heap
	// mode, live pending events in wheel mode) so the free list can be sized
	// to the simulation's observed depth (a saturated 64-node run keeps tens
	// of thousands of events in flight).
	peakQueue int
	// free recycles fired event records, a LIFO list through event.next
	// holding freeN records; a saturated simulation schedules millions of
	// events and the heap entries dominate allocation churn.
	free  *event
	freeN int
	// Processed counts events executed, useful for perf accounting.
	Processed uint64
	// wheel, when non-nil, switches the scheduler to windowed-wheel mode
	// (see wheel.go). The heap then only holds far-future overflow events.
	wheel *wheel
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// PeakQueue returns the event queue's high-water mark — how deep the
// schedule got at its busiest.
func (e *Engine) PeakQueue() int { return e.peakQueue }

// FreeListLen returns the number of recycled event records currently
// pooled; together with PeakQueue it shows how well the typed-event path
// amortizes allocation.
func (e *Engine) FreeListLen() int { return e.freeN }

// Len returns the number of pending events. Cancelled events are excluded:
// they still occupy the internal queue until popped, but will never fire.
func (e *Engine) Len() int { return e.pending }

// eventLess orders the heap by (time, sequence): earliest first, and FIFO
// among events at the same timestamp.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev, maintaining heap order and index fields. Hand-rolled
// (rather than container/heap) to avoid interface-method calls and the
// `any`-boxing of Push/Pop on the hottest loop in the simulator.
func (e *Engine) heapPush(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
	e.queue = q
	if i == 0 {
		e.farAt = ev.at
	}
	if len(q) > e.peakQueue {
		e.peakQueue = len(q)
	}
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	top.index = -1
	if n > 0 {
		e.siftDown(last, 0)
		e.farAt = q[0].at
	}
	return top
}

// siftDown places ev at heap position i, moving it toward the leaves until
// heap order holds.
func (e *Engine) siftDown(ev *event, i int) {
	q := e.queue
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
}

// alloc takes an event record from the free list (or the heap allocator),
// stamps it with the scheduling metadata, and enqueues it.
func (e *Engine) alloc(at Time, seq uint64) *event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		e.freeN--
		*ev = event{at: at, seq: seq, gen: ev.gen + 1}
	} else {
		ev = &event{at: at, seq: seq}
	}
	e.pending++
	if e.wheel != nil {
		e.wheelPush(ev)
	} else {
		e.heapPush(ev)
	}
	return ev
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: that
// is always a model bug and silently reordering would destroy causality.
//
// This is the closure-based compatibility API; hot paths should use
// ScheduleEvent, which does not allocate in steady state.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	ev := e.alloc(at, e.ReserveSeq())
	ev.actor = fn
	return EventID{ev: ev, gen: ev.gen}
}

// After runs fn after delay d (relative to the current time).
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleEvent delivers (kind, arg) to a at absolute time at. In steady
// state (free list warm) this performs no allocation.
func (e *Engine) ScheduleEvent(at Time, a Actor, kind uint8, arg uint64) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	return e.scheduleKeyed(at, e.ReserveSeq(), a, kind, arg)
}

// scheduleKeyed enqueues a typed event under the key (at, seq).
func (e *Engine) scheduleKeyed(at Time, seq uint64, a Actor, kind uint8, arg uint64) EventID {
	if a == nil {
		panic("sim: nil actor")
	}
	ev := e.alloc(at, seq)
	ev.actor = a
	ev.kind = kind
	ev.arg = arg
	return EventID{ev: ev, gen: ev.gen}
}

// ReserveSeq consumes and returns the sequence number the next scheduled
// event would get, without scheduling anything. The caller remembers the
// event's (time, seq) key and either lets it lapse (Passed) or creates it
// later with ScheduleReserved.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// Passed reports whether an event keyed (at, seq) would already have
// fired: its key lies before the firing order's current position.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq < e.curSeq
}

// ScheduleReserved delivers (kind, arg) to a at time at under a sequence
// number taken earlier with ReserveSeq. The key must not have passed: an
// event cannot fire in the past of the firing order.
func (e *Engine) ScheduleReserved(at Time, seq uint64, a Actor, kind uint8, arg uint64) EventID {
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("sim: reserved event (%v, %d) already passed at (%v, %d)", at, seq, e.now, e.curSeq))
	}
	return e.scheduleKeyed(at, seq, a, kind, arg)
}

// AfterEvent delivers (kind, arg) to a after delay d.
func (e *Engine) AfterEvent(d Time, a Actor, kind uint8, arg uint64) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleEvent(e.now+d, a, kind, arg)
}

// Cancel marks a pending event so it will not fire. Cancelling an already
// fired or already cancelled event is a no-op. Returns whether the event was
// pending.
func (e *Engine) Cancel(id EventID) bool {
	// index == idxPopped means fired/drained; wheel-resident events carry
	// idxWheel and are still cancellable.
	if id.ev == nil || id.ev.gen != id.gen || id.ev.cancelled || id.ev.index == idxPopped {
		return false
	}
	id.ev.cancelled = true
	e.pending--
	return true
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// heapPeek returns the heap's earliest live event without removing it,
// recycling the cancelled records above it; nil when the heap is empty.
// Recycle, not just pop: cancel-heavy runs (watchdog timers, fault repair)
// would otherwise leak every cancelled record past the free list.
func (e *Engine) heapPeek() *event {
	for len(e.queue) > 0 {
		top := e.queue[0]
		if !top.cancelled {
			return top
		}
		e.recycle(e.heapPop())
	}
	return nil
}

// peek returns the earliest pending event without removing it or moving
// the clock, or nil when nothing is pending.
func (e *Engine) peek() *event {
	if e.wheel != nil {
		return e.wheelPeek()
	}
	return e.heapPeek()
}

// fire executes ev, which must be the event peek just returned: the clock
// moves to it, the record is removed and recycled, and its actor runs.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.curSeq = ev.seq
	if w := e.wheel; w != nil {
		// The clock moved, so the ring span did: pull far events in. When
		// ev itself was the far top the ring was empty, so it lands at the
		// head of its slot like any ring-resident earliest event.
		if len(e.queue) > 0 {
			e.migrateFar()
		}
		w.slotPop(slotFor(ev.at))
	} else {
		e.heapPop()
	}
	e.Processed++
	e.pending--
	a, kind, arg := ev.actor, ev.kind, ev.arg
	e.recycle(ev)
	a.HandleEvent(e, kind, arg)
}

// Step executes the single next event, leaving the clock at its time. It
// returns false when nothing is pending.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// recycle returns a popped event record to the free list. Outstanding
// EventIDs referring to it become stale, which Cancel tolerates: a fired
// event has index -1 only transiently — after reuse it may be live again,
// so cancellation through a stale ID could hit the wrong event. Guard by
// generation: the gen field differs after reuse.
//
// The free list is sized from the observed queue depth (plus slack) rather
// than a fixed cap: a saturated 64-node run keeps far more than a thousand
// events pending, and recycling must keep up with that churn for the typed
// path to stay allocation-free. It links the records themselves (ev is
// unlinked from its slot or heap by now), so it never grows a backing
// array.
func (e *Engine) recycle(ev *event) {
	ev.actor = nil
	limit := e.peakQueue + 64
	if limit < 1024 {
		limit = 1024
	}
	if e.freeN < limit {
		ev.next = e.free
		e.free = ev
		e.freeN++
	}
}

// Run executes events until the queue drains, Stop is called, or the next
// event lies at or past horizon (exclusive: events scheduled at exactly
// horizon do not run). The clock is left at the last executed event, so
// anything at or after Now() may still be scheduled before the next Run.
// It returns the number of events executed.
func (e *Engine) Run(horizon Time) uint64 {
	start := e.Processed
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at >= horizon {
			break
		}
		e.fire(ev)
	}
	return e.Processed - start
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 { return e.Run(Infinity) }
