package sim

import (
	"fmt"
	"sort"

	"prdrb/internal/ckpt"
)

// Checkpoint capture for the engine layer.
//
// The encoders here serialize everything that determines future engine
// behavior — the virtual clock, the tie-breaking sequence counter, the
// firing order's position within the current instant (curSeq, which
// decides Passed for reserved keys), and every pending event in
// (time, seq) order — plus the bookkeeping
// counters (Processed, peak queue depth, freelist length) that appear in
// run summaries. Free-list *contents* are recycled records whose identity
// never affects execution, so only the length is captured.
//
// Pending closure events cannot serialize their captured environment;
// they are recorded as time/seq/actor-tag records. That is sufficient
// for the replay-verify restore strategy (see internal/runner): a resumed
// run rebuilds the simulation from configuration and re-executes to the
// checkpoint time, then proves equivalence by re-capturing and comparing
// bytes — the event records only need to be deterministic, not loadable.

// State returns the RNG's xoshiro256** state words.
func (r *RNG) State() [4]uint64 { return r.s }

// Seq returns the engine's next event sequence number — the tie-break
// counter that makes equal-time ordering deterministic.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent is a serializable snapshot of one scheduled event.
type PendingEvent struct {
	At   Time
	Seq  uint64
	Kind uint8
	Arg  uint64
	// Actor tags the event's dispatch target by dynamic type ("closure"
	// for the compatibility Schedule/After path).
	Actor string
}

// PendingEvents snapshots every scheduled, non-cancelled event in
// deterministic (time, seq) order. In wheel mode this walks the slot
// lists and the far-overflow heap; in heap mode the queue alone.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, e.pending)
	add := func(ev *event) {
		if ev == nil || ev.cancelled {
			return
		}
		name := "closure"
		if _, ok := ev.actor.(Handler); !ok {
			name = fmt.Sprintf("%T", ev.actor)
		}
		out = append(out, PendingEvent{At: ev.at, Seq: ev.seq, Kind: ev.kind, Arg: ev.arg, Actor: name})
	}
	for _, ev := range e.queue {
		add(ev)
	}
	if w := e.wheel; w != nil {
		for _, tail := range w.slots {
			if tail == nil {
				continue
			}
			for ev := tail.next; ; ev = ev.next {
				add(ev)
				if ev == tail {
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// EncodeState appends the engine's serialized state: clock, sequence
// counter, bookkeeping counters, and the pending event queue.
func (e *Engine) EncodeState(enc *ckpt.Enc) {
	enc.I64(int64(e.now))
	enc.U64(e.seq)
	enc.U64(e.curSeq)
	enc.U64(e.Processed)
	enc.Int(e.peakQueue)
	enc.Int(len(e.free))
	enc.Bool(e.wheel != nil)
	if e.wheel != nil {
		over, migr := e.FarStats()
		enc.U64(over)
		enc.U64(migr)
	}
	evs := e.PendingEvents()
	enc.Int(len(evs))
	for _, ev := range evs {
		enc.I64(int64(ev.At))
		enc.U64(ev.Seq)
		enc.U8(ev.Kind)
		enc.U64(ev.Arg)
		enc.Str(ev.Actor)
	}
}

// Deadline returns the timer's pending expiry time, if armed.
func (t *Timer) Deadline() (Time, bool) {
	if !t.id.Valid() || t.id.ev.gen != t.id.gen {
		return 0, false
	}
	return t.id.ev.at, true
}

// PendingBarrier is a serializable snapshot of one scheduled barrier task.
type PendingBarrier struct {
	At  Time
	Seq int
}

// PendingBarriers snapshots the group's not-yet-run barrier tasks in
// (time, submission) order.
func (g *ShardGroup) PendingBarriers() []PendingBarrier {
	out := make([]PendingBarrier, 0, len(g.ctrl))
	for _, t := range g.ctrl {
		out = append(out, PendingBarrier{At: t.at, Seq: t.seq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// EncodeState appends the group's serialized state: the barrier clock,
// window width, pending barrier tasks, ring occupancy (zero when
// quiescent — asserted by the capture path in internal/runner), and every
// shard engine in index order.
func (g *ShardGroup) EncodeState(enc *ckpt.Enc) {
	enc.I64(int64(g.now))
	enc.I64(int64(g.Window))
	enc.Int(g.ctrlSeq)
	bars := g.PendingBarriers()
	enc.Int(len(bars))
	for _, b := range bars {
		enc.I64(int64(b.At))
		enc.Int(b.Seq)
	}
	depth := 0
	for _, r := range g.rings {
		depth += len(r)
	}
	enc.Int(depth)
	enc.Int(len(g.Engines))
	for _, e := range g.Engines {
		e.EncodeState(enc)
	}
}

// Quiescent reports whether the group sits at a barrier with every ring
// drained — the only points where a checkpoint may be captured.
func (g *ShardGroup) Quiescent() bool {
	for _, r := range g.rings {
		if len(r) > 0 {
			return false
		}
	}
	return true
}
