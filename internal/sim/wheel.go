package sim

import "math/bits"

// Windowed wheel scheduler — the production scheduler: every engine the
// runner builds, serial or per shard, runs on it.
//
// A network simulation schedules almost everything into the near future
// (a hop, a serialization time, a credit return), so the scheduler does
// not need a totally ordered queue over an unbounded horizon: it needs
// exact ordering inside the near future and cheap storage for the rest.
// The wheel keeps three tiers, keyed by the tick (1<<tickShift ns) an
// event falls in relative to the clock's:
//
//   - the fine ring: ticks 0 and 1 ahead, in 1<<wheelSlotShift ns slots,
//     each an intrusive (time, seq)-sorted list whose insert is a tail
//     append or a short walk;
//   - the coarse tier: ticks 2 to coarseTicks-1 ahead, one unsorted list
//     per tick, filed in O(1) and cascaded into the fine slots once the
//     clock comes within one tick of it;
//   - the far heap (the engine's binary heap): anything later, window ends
//     and horizons mostly, migrated into a nearer tier as the clock comes
//     within coarseTicks of it.
//
// A tick is half the fine ring's span, so the ring holds the clock's tick
// and the next one whole and never aliases two live times in one slot.
// The ring is deliberately small — one word per slot, so the slot array
// sits in L1 — because an earlier per-nanosecond design spent more on
// cache misses over its 8192-slot ring than it saved in comparisons. Slots
// and tick lists link the event records themselves (event.next), so
// neither can grow: steady-state scheduling allocates nothing. Heavy-tail
// flow gaps and ON periods (tens of µs) land in the coarse tier rather
// than in the heap, whose array would otherwise keep doubling at scale.
//
// The wheel has no cursor of its own: the tiers are positioned by the
// clock, and the clock only moves when an event fires or the owner calls
// AdvanceTo, which is when ticks cascade and far events migrate. Peeking
// (Run's horizon check, NextEventTime) therefore never moves anything,
// which is what keeps the engine contract identical to heap mode: Now() is
// the time of the last executed event, and scheduling at any time >= Now()
// is legal between Run calls.
//
// Ordering is identical to heap mode: every fine slot is (time, seq)-
// sorted, a coarse tick is sorted as it cascades, the sequence counter is
// monotonic, and events fire in exactly (time, seq) order — the property
// TestWheelMatchesHeap pins. Heap mode (a bare NewEngine without
// EnableWheel) remains as that test's reference implementation and as the
// far-overflow store.
//
// Keys need not arrive in order. ScheduleReserved inserts a record whose
// sequence number was taken earlier (ReserveSeq), so its key may sort
// before records already in its slot — even into the slot being drained,
// behind the head that is executing. slotInsert walks to the sorted
// position whenever the new key is not a tail append, tick lists and the
// far heap order by key alone when they hand records on, and fire unlinks
// the head before its handler runs; the only requirement, checked by
// ScheduleReserved, is that the key has not passed (Engine.Passed: it lies
// after (now, curSeq), the key of the event being executed).

const (
	// wheelSlotShift sets the fine slot width. A linked slot is walked
	// from its head when an insert is not a tail append, and the head is
	// reached through the tail record, so short lists matter more than
	// they did for slice slots: 8 ns x 1024 measured no worse end to end
	// than 16 ns x 512 (same span) on every benchmark workload and ~5 %
	// faster on the two 4096-node ones.
	wheelSlotShift = 3
	// wheelSlots is the fine ring length in slots. Must be a power of two.
	wheelSlots = 1024
	// wheelSpan is the fine ring's span in nanoseconds: two ticks.
	wheelSpan = wheelSlots << wheelSlotShift

	// tickShift sets the coarse tick, half the fine span (4096 ns): a
	// 1024 B packet serializes in ~4096 ns, so most port free events land
	// in the clock's tick or the next.
	tickShift = 12
	// coarseTicks is the coarse tier's length in ticks (a ~1.05 ms span).
	// Must be a power of two.
	coarseTicks = 256
	// coarseSpan is the coarse tier's span in nanoseconds.
	coarseSpan = coarseTicks << tickShift

	// Sentinel values for event.index (heap index when >= 0).
	idxPopped = -1 // fired or drained; not pending
	idxWheel  = -2 // pending in a fine slot or a coarse tick
)

// The fine ring must hold two whole ticks: the clock's and the next.
var _ [wheelSpan - 2<<tickShift]struct{}

// wheel is the fine ring and the coarse tier of the windowed scheduler.
// The far tier reuses Engine.queue (the binary heap). Invariant, with T the
// clock's tick: every pending event of tick T or T+1 is in a fine slot,
// every one of ticks T+2 to T+coarseTicks-1 is in its tick's coarse list,
// and later ones are in the far heap.
type wheel struct {
	// slots holds each ring bucket as a circular singly linked list of
	// event records in (time, seq) order, addressed by its tail: the
	// head is tail.next, so both ends are one load away and a slot costs
	// one word. nil means empty.
	slots [wheelSlots]*event
	// occ is the slot-occupancy bitmap (one bit per slot, indexed like
	// slots); it lets the scan skip empty regions 64 slots at a time.
	occ [wheelSlots / 64]uint64
	// ticks holds each coarse tick's records, unsorted, as a circular list
	// addressed by its tail like a slot (appends keep scheduling order, so
	// a cascade's inserts are mostly tail appends); tickOcc is its bitmap.
	ticks   [coarseTicks]*event
	tickOcc [coarseTicks / 64]uint64
	// farOverflows counts events pushed beyond the coarse span into the
	// far heap; farMigrations counts the ones migrated back into a nearer
	// tier as the clock advanced (cancelled far events recycle without
	// migrating, so farMigrations <= farOverflows); cascades counts the
	// live records moved from coarse ticks into fine slots; slotWalks
	// counts the records slotInsert's sorted walk stepped over.
	// Deterministic: all four are functions of the event schedule, not of
	// wall time or GOMAXPROCS.
	farOverflows  uint64
	farMigrations uint64
	cascades      uint64
	slotWalks     uint64
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
// past the coarse span into the binary heap, and those migrated back into
// a nearer tier as the clock advanced. Always (0, 0) in heap mode.
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
		p, n := tail, uint64(0)
		for !eventLess(ev, p.next) {
			p = p.next
			n++
		}
		ev.next = p.next
		p.next = ev
		w.slotWalks += n
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

// tickOf maps an absolute time to its coarse tick number.
func tickOf(at Time) Time { return at >> tickShift }

// wheelPush files ev into the tier its tick lies in, relative to the
// clock's.
func (e *Engine) wheelPush(ev *event) {
	if d := tickOf(ev.at) - tickOf(e.now); d < coarseTicks {
		if d <= 1 {
			e.slotInsert(ev)
		} else {
			e.wheel.tickAppend(ev)
		}
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

// tickAppend links ev at the tail of its coarse tick's list.
func (w *wheel) tickAppend(ev *event) {
	i := int(tickOf(ev.at)) & (coarseTicks - 1)
	ev.index = idxWheel
	if tail := w.ticks[i]; tail == nil {
		ev.next = ev
		w.tickOcc[i>>6] |= 1 << uint(i&63)
	} else {
		ev.next = tail.next
		tail.next = ev
	}
	w.ticks[i] = ev
}

// advance files what the clock's move from tick fromTick to its current
// tick brought within reach: every coarse tick now within one of the clock's
// cascades into the fine slots, then far events within the coarse span
// migrate. Ticks the clock skipped hold no live record (nothing pending
// lies before the clock), so at most coarseTicks lists are visited.
func (e *Engine) advance(fromTick Time) {
	w := e.wheel
	to := tickOf(e.now)
	n := min(to-fromTick, coarseTicks)
	for t := to + 2 - n; t <= to+1; t++ {
		i := int(t) & (coarseTicks - 1)
		tail := w.ticks[i]
		if tail == nil {
			continue
		}
		w.ticks[i] = nil
		w.tickOcc[i>>6] &^= 1 << uint(i&63)
		for ev, last := tail.next, false; !last; {
			next := ev.next
			last = ev == tail
			if ev.cancelled {
				e.recycle(ev)
			} else {
				w.cascades++
				e.slotInsert(ev)
			}
			ev = next
		}
	}
	for len(e.queue) > 0 && tickOf(e.farAt)-to < coarseTicks {
		ev := e.heapPop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		w.farMigrations++
		if tickOf(ev.at)-to <= 1 {
			e.slotInsert(ev)
		} else {
			w.tickAppend(ev)
		}
	}
}

// wheelPeek returns the earliest live pending event — the first fine
// slot's head, else the earliest record of the first coarse tick holding a
// live one, else the far heap's top — without unlinking it or moving the
// clock; nil when nothing is pending. Cancelled records met on the way are
// recycled, so a scan that comes up empty leaves its tier empty.
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
	nowTick := tickOf(e.now)
	for dt := Time(2); dt < coarseTicks; {
		i := int(nowTick+dt) & (coarseTicks - 1)
		b := w.tickOcc[i>>6] >> uint(i&63)
		if b == 0 {
			dt += Time(64 - i&63)
			continue
		}
		dt += Time(bits.TrailingZeros64(b))
		if dt >= coarseTicks {
			break
		}
		if ev := e.tickMin(int(nowTick+dt) & (coarseTicks - 1)); ev != nil {
			return ev
		}
		dt++
	}
	return e.heapPeek()
}

// tickMin returns coarse tick i's earliest live record, unlinking and
// recycling the cancelled ones (and clearing the tick when none is live).
func (e *Engine) tickMin(i int) *event {
	w := e.wheel
	tail := w.ticks[i]
	var best *event
	prev := tail // the last record kept so far: the new tail after the walk
	for ev, last := tail.next, false; !last; {
		next := ev.next
		last = ev == tail
		if ev.cancelled {
			prev.next = next
			e.recycle(ev)
		} else {
			if best == nil || eventLess(ev, best) {
				best = ev
			}
			prev = ev
		}
		ev = next
	}
	if best == nil {
		w.ticks[i] = nil
		w.tickOcc[i>>6] &^= 1 << uint(i&63)
	} else {
		w.ticks[i] = prev
	}
	return best
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
	from := tickOf(e.now)
	e.now = at
	e.curSeq = 0 // nothing has fired at the new instant
	if e.wheel != nil && tickOf(at) != from {
		e.advance(from)
	}
}
