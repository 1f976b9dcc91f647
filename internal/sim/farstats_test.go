package sim

import "testing"

// countActor counts firings.
type countActor struct{ fired int }

func (c *countActor) HandleEvent(e *Engine, kind uint8, arg uint64) { c.fired++ }

// TestFarStatsOverflowAndMigration forces the wheel's far-heap path:
// events scheduled beyond the coarse span must overflow into the heap, and
// all of them except cancelled ones must migrate back into a nearer tier
// as the clock advances, then cascade from their coarse tick into the fine
// slots — exactly what the counters report.
func TestFarStatsOverflowAndMigration(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	c := &countActor{}
	// Fine-ring and coarse-tier events must not touch the far heap.
	e.ScheduleEvent(10, c, 0, 0)
	e.ScheduleEvent(tickNs+5, c, 0, 0)
	var coarseCancel EventID
	for i := 0; i < 5; i++ {
		id := e.ScheduleEvent(3*tickNs+Time(i), c, 0, 0)
		if i == 2 {
			coarseCancel = id
		}
	}
	e.ScheduleEvent(coarseSpan-1, c, 0, 0)
	if st := e.Stats(); st.FarOverflows != 0 || st.FarMigrations != 0 || st.Cascades != 0 {
		t.Fatalf("in-span schedule counted far or cascade traffic: %+v", st)
	}
	// Ten far events, one of which gets cancelled before the clock
	// reaches it: 10 overflows, 9 migrations (the cancelled record is
	// recycled straight off the heap).
	var cancelID EventID
	for i := 0; i < 10; i++ {
		id := e.ScheduleEvent(Time(coarseSpan+100+i*32), c, 0, 0)
		if i == 4 {
			cancelID = id
		}
	}
	if ov, mig := e.FarStats(); ov != 10 || mig != 0 {
		t.Fatalf("after far schedule: overflows=%d migrations=%d, want 10, 0", ov, mig)
	}
	if !e.Cancel(cancelID) || !e.Cancel(coarseCancel) {
		t.Fatal("cancel failed")
	}
	e.Run(Infinity)
	ov, mig := e.FarStats()
	if ov != 10 || mig != 9 {
		t.Fatalf("after drain: overflows=%d migrations=%d, want 10, 9", ov, mig)
	}
	if c.fired != 2+4+1+9 {
		t.Fatalf("fired %d events, want 16", c.fired)
	}
	st := e.Stats()
	if st.FarOverflows != ov || st.FarMigrations != mig {
		t.Fatalf("Stats disagrees with FarStats: %+v", st)
	}
	// Cascaded: the four live events of tick 3, the one of the last coarse
	// tick and the nine migrated ones, which the clock's move to tick 1
	// filed in the coarse tick of coarseSpan.
	if st.Cascades != 4+1+9 {
		t.Fatalf("cascaded %d records, want 14", st.Cascades)
	}
	if st.Processed != uint64(c.fired) || e.Len() != 0 {
		t.Fatalf("Stats counters wrong: %+v", st)
	}
}

// TestFarStatsHeapMode pins that heap-mode (serial) engines report zero
// far and cascade traffic regardless of schedule shape.
func TestFarStatsHeapMode(t *testing.T) {
	e := NewEngine()
	c := &countActor{}
	e.ScheduleEvent(3*tickNs, c, 0, 0)
	e.ScheduleEvent(Time(coarseSpan*4), c, 0, 0)
	e.Run(Infinity)
	if st := e.Stats(); st.FarOverflows != 0 || st.FarMigrations != 0 || st.Cascades != 0 {
		t.Fatalf("heap mode counted far or cascade traffic: %+v", st)
	}
}
