package prdrb

import "testing"

// TestHotPathZeroAlloc is the allocation guard for the typed-event core:
// once a saturated run is warmed up (event records recycled through the
// engine freelist, packets through the network pool, topology scratch
// primed), stepping the simulator must not allocate at all. Any new
// closure, boxing, or map/slice growth on the hot path fails this test.
// It doubles as the telemetry-off guard: a simulation built without
// telemetry must carry a nil tracer, so every trace emission site reduces
// to one pointer comparison and the zero-alloc bound covers them all.
func TestHotPathZeroAlloc(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyAdaptive, Seed: 7})
	if s.Telemetry != nil || s.Net.Tracer() != nil {
		t.Fatal("telemetry must stay detached unless the experiment asks for it")
	}
	// Same contract for the congestion observability plane: off by default,
	// so its port-level hooks reduce to nil checks covered by this bound.
	if s.Net.CongestionEnabled() {
		t.Fatal("congestion accounting must stay detached unless the experiment asks for it")
	}
	for _, rec := range s.Net.FlightRecorders() {
		if rec != nil {
			t.Fatal("flight recorder attached without Experiment.Congestion")
		}
	}
	// The guard must cover the scheduler production runs use.
	if !s.Eng.WheelEnabled() {
		t.Fatal("runner built a serial engine off the windowed wheel")
	}
	// Sustained load, stable queues: the measurement runs against this.
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 400, Start: 0, End: Second}); err != nil {
		t.Fatal(err)
	}
	// Priming overlay: 2 ms of additional supersaturating traffic pushes
	// every high-water mark (packet pool, per-port queues, the engine's
	// event-record freelist and far-overflow heap) far above anything the
	// stable load will reach, so the measured window sees no capacity
	// growth — only recycling.
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 800, Start: 0, End: 2 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Warm past the overlay and drain its backlog transient.
	s.Eng.Run(6 * Millisecond)
	if s.Eng.Len() == 0 {
		t.Fatal("queue drained during warmup; workload no longer saturates the engine")
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < 20000; i++ {
			if !s.Eng.Step() {
				t.Fatal("engine drained mid-measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("hot path allocates %.2f allocs per 20k events, want 0", avg)
	}
}
