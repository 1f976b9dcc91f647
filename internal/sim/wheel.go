package sim

import "math/bits"

// Windowed wheel scheduler — the production scheduler: every engine the
// runner builds, serial or per shard, runs on it.
//
// A network simulation schedules almost everything into the near future
// (a hop, a serialization time, a credit return), so the scheduler does
// not need a totally ordered queue over an unbounded horizon: it needs
// exact ordering inside the near future and anything-goes storage for
// far-out events. The wheel exploits that: events within the next
// wheelSpan nanoseconds go into a ring of coarse slots (1<<wheelSlotShift
// ns each), each an intrusive (time, seq)-sorted list whose insert is a
// tail append or a short walk, and the rare far events (packet-tail
// serialization beyond the span, watchdogs, injection-window ends)
// overflow into the engine's binary heap and migrate into the ring as the
// clock approaches them. The ring is deliberately small — one word per
// slot, so the slot array sits in L1 — because an earlier per-nanosecond
// design spent more on cache misses over its 8192-slot ring than it saved
// in comparisons. Slots link the event records themselves (event.next),
// so a slot can never grow: steady-state scheduling allocates nothing.
//
// The wheel has no cursor of its own: the ring always covers the
// wheelSlots slots starting at the clock's slot, and the clock only moves
// when an event fires or the owner calls AdvanceTo. Peeking (Run's
// horizon check, NextEventTime) therefore never moves anything, which is
// what keeps the engine contract identical to heap mode: Now() is the
// time of the last executed event, and scheduling at any time >= Now() is
// legal between Run calls.
//
// Ordering is identical to heap mode: every slot is (time, seq)-sorted,
// the sequence counter is monotonic, and events fire in exactly
// (time, seq) order — the property TestWheelMatchesHeap pins. Heap mode
// (a bare NewEngine without EnableWheel) remains as that test's reference
// implementation and as the far-overflow store.
//
// Keys need not arrive in order. ScheduleReserved inserts a record whose
// sequence number was taken earlier (ReserveSeq), so its key may sort
// before records already in its slot — even into the slot being drained,
// behind the head that is executing. slotInsert walks to the sorted
// position whenever the new key is not a tail append, the far heap orders
// by key alone, and fire unlinks the head before its handler runs; the
// only requirement, checked by ScheduleReserved, is that the key has not
// passed (Engine.Passed: it lies after (now, curSeq), the key of the event
// being executed).

const (
	// wheelSlotShift sets the slot width. A linked slot is walked from its
	// head when an insert is not a tail append, and the head is reached
	// through the tail record, so short lists matter more than they did
	// for slice slots: 8 ns x 1024 measured no worse end to end than
	// 16 ns x 512 (same span) on every benchmark workload and ~5 % faster
	// on the two 4096-node ones.
	wheelSlotShift = 3
	// wheelSlots is the ring length in slots. Must be a power of two.
	wheelSlots = 1024
	// wheelSpan is the ring horizon in nanoseconds. It comfortably covers
	// the default hot path: a 1024 B packet serializes in ~4096 ns, so
	// port free events — the furthest-out frequent event — stay in-ring.
	wheelSpan = wheelSlots << wheelSlotShift

	// Sentinel values for event.index (heap index when >= 0).
	idxPopped = -1 // fired or drained; not pending
	idxWheel  = -2 // pending in a wheel slot
)

// wheel is the ring half of the windowed scheduler. The far half reuses
// Engine.queue (the binary heap). Invariant: every pending event whose
// slot lies within wheelSlots slots of the clock's slot is in the ring;
// later ones are in the far heap.
type wheel struct {
	// slots holds each ring bucket as a circular singly linked list of
	// event records in (time, seq) order, addressed by its tail: the
	// head is tail.next, so both ends are one load away and a slot costs
	// one word. nil means empty.
	slots [wheelSlots]*event
	// occ is the slot-occupancy bitmap (one bit per slot, indexed like
	// slots); it lets the scan skip empty regions 64 slots at a time.
	occ [wheelSlots / 64]uint64
	// farOverflows counts events pushed beyond the ring span into the far
	// heap; farMigrations counts the ones migrated back into a slot as the
	// clock advanced (cancelled far events recycle without migrating, so
	// farMigrations <= farOverflows). Deterministic: both are functions of
	// the event schedule, not of wall time or GOMAXPROCS.
	farOverflows  uint64
	farMigrations uint64
}

// EnableWheel switches the engine's scheduler into windowed-wheel mode.
// It must be called before any event is scheduled.
func (e *Engine) EnableWheel() {
	if len(e.queue) > 0 || e.seq != 0 {
		panic("sim: EnableWheel on a used engine")
	}
	e.wheel = &wheel{}
}

// FarStats reports the wheel's far-heap traffic: events that overflowed
// past the ring span into the binary heap, and those migrated back into
// ring slots as the clock advanced. Always (0, 0) in heap mode.
func (e *Engine) FarStats() (overflows, migrations uint64) {
	if e.wheel == nil {
		return 0, 0
	}
	return e.wheel.farOverflows, e.wheel.farMigrations
}

// slotFor maps an absolute time to its ring slot.
func slotFor(at Time) int { return int(at>>wheelSlotShift) & (wheelSlots - 1) }

// slotInsert links ev into its (time, seq)-sorted position within its ring
// slot. Scheduling runs forward in time, so the common case is a tail
// append; otherwise the list is walked from the head. Fired events are
// unlinked before their handler runs, so inserting into the slot being
// drained needs no special case.
func (e *Engine) slotInsert(ev *event) {
	w := e.wheel
	s := slotFor(ev.at)
	ev.index = idxWheel
	tail := w.slots[s]
	switch {
	case tail == nil:
		ev.next = ev
		w.slots[s] = ev
		w.occ[s>>6] |= 1 << uint(s&63)
	case !eventLess(ev, tail):
		ev.next = tail.next
		tail.next = ev
		w.slots[s] = ev
	default:
		// ev < tail: the walk stops before running off the list. Starting
		// at the tail makes its first comparison the head's.
		p := tail
		for !eventLess(ev, p.next) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// slotPop unlinks and returns slot s's head, clearing the slot's
// occupancy bit when it empties.
func (w *wheel) slotPop(s int) *event {
	tail := w.slots[s]
	ev := tail.next
	if ev == tail {
		w.slots[s] = nil
		w.occ[s>>6] &^= 1 << uint(s&63)
	} else {
		tail.next = ev.next
	}
	ev.next = nil
	ev.index = idxPopped
	return ev
}

// wheelPush files ev into its ring slot or the far heap.
func (e *Engine) wheelPush(ev *event) {
	if (ev.at>>wheelSlotShift)-(e.now>>wheelSlotShift) < wheelSlots {
		e.slotInsert(ev)
		if e.pending > e.peakQueue {
			// In wheel mode peakQueue tracks the pending high-water mark —
			// the same freelist-sizing role it plays in heap mode.
			e.peakQueue = e.pending
		}
		return
	}
	e.wheel.farOverflows++
	e.heapPush(ev)
}

// migrateFar moves far-heap events whose slot has entered the ring span
// into their sorted slot positions. Called whenever the clock advances.
func (e *Engine) migrateFar() {
	nowSlot := e.now >> wheelSlotShift
	for len(e.queue) > 0 && (e.farAt>>wheelSlotShift)-nowSlot < wheelSlots {
		ev := e.heapPop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.wheel.farMigrations++
		e.slotInsert(ev)
	}
}

// wheelPeek returns the earliest live pending event — the first ring
// slot's head or, when the ring holds nothing live, the far heap's top —
// without unlinking it or moving the clock; nil when nothing is pending.
// Cancelled records met on the way are recycled, so a scan that comes up
// empty leaves the ring empty.
func (e *Engine) wheelPeek() *event {
	w := e.wheel
	nowSlot := e.now >> wheelSlotShift
	for ds := Time(0); ds < wheelSlots; {
		s := int(nowSlot+ds) & (wheelSlots - 1)
		b := w.occ[s>>6] >> uint(s&63)
		if b == 0 {
			ds += Time(64 - s&63)
			continue
		}
		ds += Time(bits.TrailingZeros64(b))
		if ds >= wheelSlots {
			break
		}
		s = int(nowSlot+ds) & (wheelSlots - 1)
		for w.slots[s] != nil {
			if ev := w.slots[s].next; !ev.cancelled {
				return ev
			}
			e.recycle(w.slotPop(s))
		}
		ds++
	}
	return e.heapPeek()
}

// NextEventTime returns the timestamp of the earliest pending event, or
// Infinity if nothing is pending. The shard group uses it at barriers to
// fast-forward across globally idle spans.
func (e *Engine) NextEventTime() Time {
	if ev := e.peek(); ev != nil {
		return ev.at
	}
	return Infinity
}

// AdvanceTo moves the clock forward to at. It is the shard group's
// window-alignment hook: the caller guarantees no pending event lies
// before at.
func (e *Engine) AdvanceTo(at Time) {
	if at <= e.now {
		return
	}
	e.now = at
	e.curSeq = 0 // nothing has fired at the new instant
	if e.wheel != nil {
		e.migrateFar()
	}
}
