package sim

import "testing"

// countActor counts firings.
type countActor struct{ fired int }

func (c *countActor) HandleEvent(e *Engine, kind uint8, arg uint64) { c.fired++ }

// TestFarStatsOverflowAndMigration forces the wheel's far-heap path:
// events scheduled beyond the ring span must overflow into the heap, and
// all of them except cancelled ones must migrate back into ring slots as
// the cursor advances — exactly what the new counters report.
func TestFarStatsOverflowAndMigration(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	c := &countActor{}
	// In-span events must not touch the far heap.
	e.ScheduleEvent(10, c, 0, 0)
	e.ScheduleEvent(wheelSpan-1, c, 0, 0)
	if ov, mig := e.FarStats(); ov != 0 || mig != 0 {
		t.Fatalf("in-span schedule counted far traffic: overflows=%d migrations=%d", ov, mig)
	}
	// Ten far events, one of which gets cancelled before the cursor
	// reaches it: 10 overflows, 9 migrations (the cancelled record is
	// recycled straight off the heap).
	var cancelID EventID
	for i := 0; i < 10; i++ {
		id := e.ScheduleEvent(Time(wheelSpan+100+i*32), c, 0, 0)
		if i == 4 {
			cancelID = id
		}
	}
	if ov, mig := e.FarStats(); ov != 10 || mig != 0 {
		t.Fatalf("after far schedule: overflows=%d migrations=%d, want 10, 0", ov, mig)
	}
	if !e.Cancel(cancelID) {
		t.Fatal("cancel failed")
	}
	e.Run(Infinity)
	ov, mig := e.FarStats()
	if ov != 10 || mig != 9 {
		t.Fatalf("after drain: overflows=%d migrations=%d, want 10, 9", ov, mig)
	}
	if c.fired != 2+9 {
		t.Fatalf("fired %d events, want 11", c.fired)
	}
	st := e.Stats()
	if st.FarOverflows != ov || st.FarMigrations != mig {
		t.Fatalf("Stats disagrees with FarStats: %+v", st)
	}
	if st.Processed != uint64(c.fired) || st.Pending != 0 {
		t.Fatalf("Stats counters wrong: %+v", st)
	}
}

// TestFarStatsHeapMode pins that heap-mode (serial) engines report zero
// far traffic regardless of schedule shape.
func TestFarStatsHeapMode(t *testing.T) {
	e := NewEngine()
	c := &countActor{}
	e.ScheduleEvent(Time(wheelSpan*4), c, 0, 0)
	e.Run(Infinity)
	if ov, mig := e.FarStats(); ov != 0 || mig != 0 {
		t.Fatalf("heap mode counted far traffic: %d, %d", ov, mig)
	}
}
