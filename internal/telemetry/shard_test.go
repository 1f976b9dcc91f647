package telemetry

import "testing"

// TestForkAbsorbMerge pins the deterministic time-ordered merge of shard
// tracer buffers, including run-scope inheritance and tie-breaking by
// shard index.
func TestForkAbsorbMerge(t *testing.T) {
	parent := NewTracer(1)
	parent.BeginRun()
	parent.BeginRun() // events below belong to run index 1
	a := parent.Fork()
	b := parent.Fork()
	a.PacketInjected(10, 1, 0, 1, 64)
	a.PacketDelivered(30, 1, 0, 1, 20, 0)
	b.PacketInjected(10, 2, 2, 3, 64)
	b.PacketInjected(20, 3, 2, 3, 64)
	parent.Absorb([]*Tracer{a, b})

	evs := parent.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantAt := []int64{10, 10, 20, 30}
	wantPkt := []int64{1, 2, 3, 1} // t=10 tie breaks by shard index: a before b
	for i, ev := range evs {
		if ev.At != wantAt[i] || ev.Pkt != wantPkt[i] {
			t.Fatalf("event %d = at %d pkt %d, want at %d pkt %d", i, ev.At, ev.Pkt, wantAt[i], wantPkt[i])
		}
		if ev.Run != 1 {
			t.Fatalf("event %d run %d, want 1", i, ev.Run)
		}
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatal("absorb must clear shard buffers")
	}

	// Successive absorption appends in time order.
	a.PacketInjected(40, 4, 0, 1, 64)
	parent.Absorb([]*Tracer{a, b})
	if parent.Len() != 5 || parent.Events()[4].At != 40 {
		t.Fatalf("second absorb: %d events", parent.Len())
	}
}

// TestForkNil pins that disabled telemetry stays free in sharded mode.
func TestForkNil(t *testing.T) {
	var nilT *Tracer
	if f := nilT.Fork(); f != nil {
		t.Fatal("nil fork must be nil")
	}
	nilT.Absorb([]*Tracer{nil, nil}) // must not panic
}
