package prdrb

import (
	"testing"

	"prdrb/internal/sim"
)

// The serial engine contract as seen through Sim, on the production
// (windowed-wheel) scheduler: the clock parks at the last executed event,
// and scheduling between Execute calls stays legal after a drain.

func loadedSim(t *testing.T) *Sim {
	t.Helper()
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyAdaptive, Seed: 7})
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 400, Start: 0, End: Millisecond}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExecuteElapsedIsLastEvent pins that a horizon-limited Execute
// reports the time of the last event it ran — found independently by
// running a twin simulation one timestamp at a time up to the same
// horizon — not the horizon.
func TestExecuteElapsedIsLastEvent(t *testing.T) {
	const horizon = 50 * Microsecond
	twin := loadedSim(t)
	for at := twin.Eng.NextEventTime(); at < horizon; at = twin.Eng.NextEventTime() {
		twin.Eng.Run(at + 1)
	}
	want := twin.Eng.Now()
	if want <= 0 || want >= horizon {
		t.Fatalf("twin's last event below the horizon is at %v; workload no longer straddles %v", want, horizon)
	}
	s := loadedSim(t)
	if res := s.Execute(horizon); res.Elapsed != want {
		t.Fatalf("Execute(%v).Elapsed = %v, want the last executed event's time %v", horizon, res.Elapsed, want)
	}
	if s.Eng.Len() == 0 {
		t.Fatal("nothing pending past the horizon; the run was not horizon-limited")
	}
}

// TestScheduleAfterDrainedExecute pins that Execute can be called
// repeatedly: after a run drains well short of its horizon, an event
// scheduled just past Now() is accepted and the next Execute fires it.
func TestScheduleAfterDrainedExecute(t *testing.T) {
	s := loadedSim(t)
	s.Execute(2 * Second)
	if s.Eng.Len() != 0 {
		t.Fatalf("%d events pending after Execute(2s); expected a full drain", s.Eng.Len())
	}
	at := s.Now() + 1
	fired := Time(-1)
	s.Eng.Schedule(at, func(e *sim.Engine) { fired = e.Now() })
	s.Execute(3 * Second)
	if fired != at {
		t.Fatalf("event scheduled at %v after a drained Execute fired at %v", at, fired)
	}
}
