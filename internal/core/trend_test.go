package core

import (
	"bytes"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func TestTrendSlope(t *testing.T) {
	var tt trendTracker
	// Fewer than 4 samples: no slope.
	tt.add(0, 100)
	tt.add(10, 200)
	if _, _, ok := tt.slope(); ok {
		t.Fatal("slope with 2 samples")
	}
	tt.add(20, 300)
	tt.add(30, 400)
	slope, latest, ok := tt.slope()
	if !ok {
		t.Fatal("no slope with 4 samples")
	}
	if slope < 9.9 || slope > 10.1 {
		t.Fatalf("slope = %v, want 10", slope)
	}
	if latest != 400 {
		t.Fatalf("latest = %v", latest)
	}
}

func TestTrendRingWraps(t *testing.T) {
	var tt trendTracker
	for i := 0; i < 3*trendCapacity; i++ {
		tt.add(sim.Time(i*10), float64(i))
	}
	if tt.count() != trendCapacity {
		t.Fatalf("ring count = %d", tt.count())
	}
	slope, _, ok := tt.slope()
	if !ok || slope < 0.09 || slope > 0.11 {
		t.Fatalf("wrapped slope = %v, ok=%v", slope, ok)
	}
}

func TestTrendPredictsCongestion(t *testing.T) {
	var tt trendTracker
	// Rising 10 ns per ns: from 400, threshold 1000 reached in 60 ns.
	for i := 0; i <= 3; i++ {
		tt.add(sim.Time(i*10), float64(100+i*100))
	}
	if !tt.predictsCongestion(1000, 100) {
		t.Fatal("imminent crossing not predicted")
	}
	if tt.predictsCongestion(1000, 10) {
		t.Fatal("predicted crossing beyond the horizon")
	}
	// Flat history predicts nothing.
	var flat trendTracker
	for i := 0; i < 6; i++ {
		flat.add(sim.Time(i*10), 500)
	}
	if flat.predictsCongestion(1000, 1<<40) {
		t.Fatal("flat trend predicted congestion")
	}
	// Already above threshold: the zone FSM handles it, not the predictor.
	var above trendTracker
	for i := 0; i <= 4; i++ {
		above.add(sim.Time(i*10), float64(2000+i*100))
	}
	if above.predictsCongestion(1000, 100) {
		t.Fatal("predictor fired above threshold")
	}
}

// With the trend predictor on, a steadily rising latency must open paths
// BEFORE L(MP) crosses ThresholdHigh.
func TestTrendTriggersEarlyOpening(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval = 0
	cfg.TrendHorizon = 200 * sim.Microsecond
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))

	// Ramp: 2,3,4,5,6 us — all below ThresholdHigh (10us), rising ~1us per
	// ack. EWMA smoothing keeps L(MP) below threshold throughout.
	for i := 0; i < 5; i++ {
		lat := sim.Time(2+i) * sim.Microsecond
		ctl.HandleAck(eng, &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: 0, PathLatency: lat})
		eng.Schedule(eng.Now()+10*sim.Microsecond, func(*sim.Engine) {})
		eng.RunAll()
	}
	if ctl.Stats.TrendFirings == 0 {
		t.Fatal("trend predictor never fired on a rising ramp")
	}
	if ctl.PathCount(63) < 2 {
		t.Fatal("early firing did not open paths")
	}
	// Without the predictor the same ramp must NOT open anything.
	cfg2 := DRBConfig()
	cfg2.OpenInterval = 0
	eng2 := sim.NewEngine()
	ctl2 := New(0, topo, eng2, cfg2, sim.NewRNG(3))
	for i := 0; i < 5; i++ {
		lat := sim.Time(2+i) * sim.Microsecond
		ctl2.HandleAck(eng2, &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: 0, PathLatency: lat})
	}
	if ctl2.PathCount(63) != 1 {
		t.Fatal("reactive controller opened paths below threshold")
	}
}

func TestKnowledgeExportImportRoundTrip(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := PRDRBConfig()
	cfg.OpenInterval = 0
	trained := New(0, topo, eng, cfg, sim.NewRNG(3))
	pattern := []network.FlowKey{{Src: 0, Dst: 63}, {Src: 7, Dst: 63}}
	// Train: force H then save on H->M.
	for i := 0; i < 6; i++ {
		trained.HandleAck(eng, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: 0, PathLatency: 100 * sim.Microsecond}, pattern))
		eng.Schedule(eng.Now()+sim.Microsecond, func(*sim.Engine) {})
		eng.RunAll()
	}
	for _, id := range openPathIDs(trained, 63) {
		trained.HandleAck(eng, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: int32(id), PathLatency: 5 * sim.Microsecond}, pattern))
	}
	if trained.DB().Size() == 0 {
		t.Fatal("training produced no solutions")
	}

	k := ExportKnowledge([]*Controller{trained})
	if k.Size() != trained.DB().Size() {
		t.Fatalf("export size %d != db size %d", k.Size(), trained.DB().Size())
	}
	var buf bytes.Buffer
	if _, err := k.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := ReadKnowledge(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Size() != k.Size() {
		t.Fatal("JSON round trip lost solutions")
	}

	// Import into a fresh controller: the first congestion with the known
	// pattern must reuse immediately (no gradual opening).
	eng3 := sim.NewEngine()
	fresh := New(0, topo, eng3, cfg, sim.NewRNG(4))
	if err := ImportKnowledge([]*Controller{fresh}, k2); err != nil {
		t.Fatal(err)
	}
	fresh.HandleAck(eng3, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
		MSPIndex: 0, PathLatency: 100 * sim.Microsecond}, pattern))
	if fresh.Stats.ReuseApplications != 1 {
		t.Fatalf("preloaded controller did not reuse: %+v", fresh.Stats)
	}
	if fresh.PathCount(63) < 2 {
		t.Fatal("preloaded solution did not restore paths")
	}
}

func TestImportKnowledgeErrors(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	k := &Knowledge{Nodes: []exportNode{{Node: 99, Solutions: []exportSolution{{Dst: 1}}}}}
	c := New(0, topo, eng, PRDRBConfig(), sim.NewRNG(1))
	if err := ImportKnowledge([]*Controller{c}, k); err == nil {
		t.Fatal("unknown node accepted")
	}
	plain := New(0, topo, eng, DRBConfig(), sim.NewRNG(1))
	k2 := &Knowledge{Nodes: []exportNode{{Node: 0, Solutions: []exportSolution{{Dst: 1}}}}}
	if err := ImportKnowledge([]*Controller{plain}, k2); err == nil {
		t.Fatal("non-predictive controller accepted knowledge")
	}
	if _, err := ReadKnowledge(bytes.NewBufferString("{bad json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
