package sim

import (
	"fmt"
	"sort"
)

// Read-only accessors for the checkpoint seal (see internal/runner): the
// RNG position, the tie-break counter, the pending event queue and the
// group's quiescence. A resume replays the run from t = 0 and hashes what
// these report, so they only need to be deterministic, never loadable.

// State returns the RNG's xoshiro256** state words.
func (r *RNG) State() [4]uint64 { return r.s }

// Seq returns the engine's next event sequence number — the tie-break
// counter that makes equal-time ordering deterministic.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent is a snapshot of one scheduled event.
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
