package core

import (
	"math"
	"testing"
	"testing/quick"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"drb": DRBConfig(), "pr-drb": PRDRBConfig(), "fr-drb": FRDRBConfig(), "pr-fr-drb": PRFRDRBConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.ThresholdLow = 0 },
		func(c *Config) { c.ThresholdHigh = c.ThresholdLow },
		func(c *Config) { c.MaxPaths = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.LatencyFloor = 0 },
		func(c *Config) { c.Watchdog = -1 },
	}
	for i, mutate := range bad {
		cfg := DRBConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := PRDRBConfig()
	cfg.Similarity = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero similarity accepted for predictive config")
	}
}

func TestControllerNames(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	for want, cfg := range map[string]Config{
		"drb": DRBConfig(), "pr-drb": PRDRBConfig(), "fr-drb": FRDRBConfig(), "pr-fr-drb": PRFRDRBConfig(),
	} {
		if got := New(0, topo, eng, cfg, rng).Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
		if named, ok := ConfigByName(want); !ok || named != cfg {
			t.Errorf("ConfigByName(%q) = %+v, %v; want the %s defaults", want, named, ok, want)
		}
	}
}

func TestMetapathLatencyEq34(t *testing.T) {
	mp := newMetapath(5, 500)
	mp.latNs = 1000
	// Single path: L(MP) = path latency.
	if got := mp.latency(500); got != 1000 {
		t.Fatalf("L(MP) single = %v", got)
	}
	// Two paths 1000 and 1000: harmonic aggregate = 500.
	mp.spill()
	mp.paths = append(mp.paths, pathState{id: 1, latNs: 1000})
	if got := mp.latency(500); math.Abs(got-500) > 1e-9 {
		t.Fatalf("L(MP) double = %v, want 500", got)
	}
	// 1000 and 3000: 1/(1/1000+1/3000) = 750.
	mp.paths[1].latNs = 3000
	if got := mp.latency(500); math.Abs(got-750) > 1e-9 {
		t.Fatalf("L(MP) = %v, want 750", got)
	}
}

// Property: Eq 3.6 selection frequencies are inversely proportional to
// latencies.
func TestSelectionPDF(t *testing.T) {
	cfg := DRBConfig()
	cfg.HopPenalty = 0
	mp := newMetapath(1, cfg.LatencyFloor)
	mp.latNs = 10000
	mp.spill()
	mp.paths = append(mp.paths, pathState{id: 1, latNs: 30000})
	c := New(0, topology.NewMesh(4, 4), sim.NewEngine(), cfg, sim.NewRNG(42))
	counts := map[int32]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		_, id := c.selectPath(mp)
		counts[id]++
	}
	// Expected shares: (1/10k)/(1/10k+1/30k)=0.75 vs 0.25.
	got := float64(counts[0]) / n
	if math.Abs(got-0.75) > 0.02 {
		t.Fatalf("path 0 selected %.3f of the time, want ~0.75", got)
	}
}

func TestSelectionPrefersShorterPaths(t *testing.T) {
	cfg := DRBConfig()
	mp := newMetapath(1, cfg.LatencyFloor)
	mp.latNs = 5000
	// Same latency but 4 extra hops: must be picked less often.
	mp.spill()
	mp.paths = append(mp.paths, pathState{id: 1, latNs: 5000, extraHops: 4})
	c := New(0, topology.NewMesh(4, 4), sim.NewEngine(), cfg, sim.NewRNG(7))
	counts := map[int32]int{}
	for i := 0; i < 20000; i++ {
		_, id := c.selectPath(mp)
		counts[id]++
	}
	if counts[1] >= counts[0] {
		t.Fatalf("longer path selected as often: %v", counts)
	}
}

func TestObserveEWMA(t *testing.T) {
	cfg := DRBConfig()
	mp := newMetapath(1, cfg.LatencyFloor)
	mp.observe(&cfg, 0, 10000)
	if mp.latNs != 10000 {
		t.Fatalf("first sample not adopted: %v", mp.latNs)
	}
	mp.observe(&cfg, 0, 20000)
	want := 0.3*20000 + 0.7*10000
	if math.Abs(mp.latNs-want) > 1e-9 {
		t.Fatalf("EWMA = %v, want %v", mp.latNs, want)
	}
	// Unknown path id ignored.
	mp.observe(&cfg, 99, 5)
}

func TestSignatureNormalization(t *testing.T) {
	a := NewSignature([]network.FlowKey{{Src: 3, Dst: 4}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, 10)
	if len(a) != 2 || a[0] != (network.FlowKey{Src: 1, Dst: 2}) {
		t.Fatalf("signature = %v", a)
	}
	b := NewSignature([]network.FlowKey{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 5, Dst: 6}}, 2)
	if len(b) != 2 {
		t.Fatalf("cap not applied: %v", b)
	}
}

func TestSimilarity(t *testing.T) {
	a := NewSignature([]network.FlowKey{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, 0)
	b := NewSignature([]network.FlowKey{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, 0)
	if Similarity(a, b) != 1 {
		t.Fatal("identical signatures not similarity 1")
	}
	c := NewSignature([]network.FlowKey{{Src: 1, Dst: 2}, {Src: 5, Dst: 6}}, 0)
	if got := Similarity(a, c); got != 0.5 {
		t.Fatalf("half-overlap similarity = %v", got)
	}
	if Similarity(a, nil) != 0 || Similarity(nil, nil) != 1 {
		t.Fatal("empty-signature cases wrong")
	}
	// The paper's 80%: 4 of 5 flows shared -> 2*4/10 = 0.8 passes.
	var xs, ys []network.FlowKey
	for i := 0; i < 5; i++ {
		xs = append(xs, network.FlowKey{Src: topology.NodeID(i), Dst: 9})
	}
	ys = append(ys, xs[:4]...)
	ys = append(ys, network.FlowKey{Src: 7, Dst: 8})
	if got := Similarity(NewSignature(xs, 0), NewSignature(ys, 0)); got < 0.8 {
		t.Fatalf("4/5 overlap = %v, want >= 0.8", got)
	}
}

// Property: Similarity is symmetric and within [0,1].
func TestSimilarityProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		toSig := func(v []uint8) Signature {
			var fl []network.FlowKey
			for _, x := range v {
				fl = append(fl, network.FlowKey{Src: topology.NodeID(x % 16), Dst: topology.NodeID(x / 16)})
			}
			return NewSignature(fl, 0)
		}
		a, b := toSig(av), toSig(bv)
		s1, s2 := Similarity(a, b), Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1 && Similarity(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionDBSaveLookupUpdate(t *testing.T) {
	db := NewSolutionDB()
	sig := NewSignature([]network.FlowKey{{Src: 1, Dst: 9}, {Src: 2, Dst: 9}}, 0)
	paths := []pathState{{id: 0}, {id: 1, path: topology.Path{5}}}
	if db.Save(9, nil, paths, 0.8, 0) != nil {
		t.Fatal("empty signature saved")
	}
	s := db.Save(9, sig, paths, 0.8, 100)
	if s == nil || db.Size() != 1 {
		t.Fatal("save failed")
	}
	if got := db.Lookup(9, sig, 0.8); got != s {
		t.Fatal("lookup missed exact signature")
	}
	if db.Lookup(8, sig, 0.8) != nil {
		t.Fatal("lookup crossed destinations")
	}
	// A matching signature updates in place instead of duplicating.
	s2 := db.Save(9, sig, paths, 0.8, 200)
	if s2 != s || db.Size() != 1 || s.Updates != 1 {
		t.Fatal("matching save did not update in place")
	}
	// A disjoint signature adds a new entry.
	sig2 := NewSignature([]network.FlowKey{{Src: 7, Dst: 9}}, 0)
	db.Save(9, sig2, paths, 0.8, 300)
	if db.Size() != 2 {
		t.Fatal("disjoint save did not add")
	}
	if len(db.Patterns()) != 2 {
		t.Fatal("Patterns() incomplete")
	}
}

func TestSolutionDBEviction(t *testing.T) {
	db := NewSolutionDB()
	db.MaxPerDst = 3
	for i := 0; i < 5; i++ {
		sig := NewSignature([]network.FlowKey{{Src: topology.NodeID(i), Dst: 50}}, 0)
		db.Save(1, sig, nil, 0.8, sim.Time(i))
	}
	if db.Size() != 3 {
		t.Fatalf("eviction kept %d entries", db.Size())
	}
}

func TestMetapathRestoreAssignsFreshIDs(t *testing.T) {
	mp := newMetapath(3, 500)
	saved := []pathState{
		{id: 0, latNs: 1000},
		{id: 7, path: topology.Path{4}, latNs: 2000, observed: true},
	}
	mp.restore(new(shardState), saved)
	if len(mp.paths) != 2 {
		t.Fatal("restore lost paths")
	}
	if mp.paths[0].id != 0 || len(mp.paths[0].path) != 0 {
		t.Fatal("direct path mangled")
	}
	if mp.paths[1].id == 7 || mp.paths[1].observed {
		t.Fatal("restored path kept stale identity")
	}
	if mp.paths[1].latNs != 2000 {
		t.Fatal("restored path lost its saved latency weight")
	}
	if &mp.paths[1].path[0] != &saved[1].path[0] {
		t.Fatal("restore copied the immutable waypoints")
	}
}

func TestZoneClassification(t *testing.T) {
	c := New(0, topology.NewMesh(4, 4), sim.NewEngine(), DRBConfig(), sim.NewRNG(1))
	if c.zoneOf(float64(sim.Microsecond)) != ZoneLow {
		t.Fatal("1us should be Low")
	}
	if c.zoneOf(float64(5*sim.Microsecond)) != ZoneMedium {
		t.Fatal("5us should be Medium")
	}
	if c.zoneOf(float64(50*sim.Microsecond)) != ZoneHigh {
		t.Fatal("50us should be High")
	}
	if ZoneLow.String() != "L" || ZoneMedium.String() != "M" || ZoneHigh.String() != "H" {
		t.Fatal("zone strings wrong")
	}
}

// withFlows writes a predictive header carrying flows into the ACK p.
func withFlows(p *network.Packet, flows []network.FlowKey) *network.Packet {
	p.SetPredictiveHeader(0, flows)
	return p
}

// Feeding high-latency ACKs must walk the FSM: open paths up to MaxPaths;
// low-latency ACKs must close them back down to the direct path.
func TestFSMOpensAndClosesPaths(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))

	ack := func(lat sim.Time, mspID int) *network.Packet {
		return &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0, MSPIndex: int32(mspID), PathLatency: lat}
	}
	advance := func() {
		eng.Schedule(eng.Now()+sim.Microsecond, func(*sim.Engine) {})
		eng.RunAll()
	}
	// Congest the direct path: repeated high-latency ACKs.
	for i := 0; i < 6; i++ {
		ctl.HandleAck(eng, ack(100*sim.Microsecond, 0))
		advance()
	}
	if got := ctl.PathCount(63); got != cfg.MaxPaths {
		t.Fatalf("paths after congestion = %d, want %d", got, cfg.MaxPaths)
	}
	if ctl.ZoneFor(63) != ZoneHigh {
		t.Fatalf("zone = %v, want H", ctl.ZoneFor(63))
	}
	// Relax: low-latency ACKs on every open path shrink the metapath.
	for i := 0; i < 40 && ctl.PathCount(63) > 1; i++ {
		for _, id := range openPathIDs(ctl, 63) {
			ctl.HandleAck(eng, ack(100*sim.Nanosecond, id))
		}
		advance()
	}
	if got := ctl.PathCount(63); got != 1 {
		t.Fatalf("paths after relaxation = %d, want 1", got)
	}
	if ctl.Stats.PathsOpened == 0 || ctl.Stats.PathsClosed == 0 {
		t.Fatal("stats not recorded")
	}
}

// A metapath of MaxPaths 1 is its direct path alone, congested or not.
func TestMaxPathsOneNeverOpens(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval, cfg.MaxPaths = 0, 1
	ctl := New(0, topology.NewMesh(8, 8), eng, cfg, sim.NewRNG(3))
	for i := 0; i < 6; i++ {
		ctl.HandleAck(eng, &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0, MSPIndex: 0, PathLatency: 100 * sim.Microsecond})
	}
	if ctl.PathCount(63) != 1 || ctl.Stats.PathsOpened != 0 || ctl.ZoneFor(63) != ZoneHigh {
		t.Fatalf("MaxPaths 1 under congestion: %d paths, %d opened, zone %v", ctl.PathCount(63), ctl.Stats.PathsOpened, ctl.ZoneFor(63))
	}
}

func openPathIDs(c *Controller, dst topology.NodeID) []int {
	var one [1]pathState
	states := c.find(dst).states(&one)
	ids := make([]int, len(states))
	for i := range states {
		ids[i] = int(states[i].id)
	}
	return ids
}

// The predictive layer must save the solution on H->M and re-apply it
// instantly on the next M->H with the same contending pattern.
func TestPredictiveSaveAndReuse(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := PRDRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	pattern := []network.FlowKey{{Src: 0, Dst: 63}, {Src: 7, Dst: 63}, {Src: 56, Dst: 63}}

	ack := func(lat sim.Time, mspID int, flows []network.FlowKey) *network.Packet {
		return withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: int32(mspID), PathLatency: lat}, flows)
	}
	advance := func() {
		eng.Schedule(eng.Now()+sim.Microsecond, func(*sim.Engine) {})
		eng.RunAll()
	}
	// Burst 1: congestion with the pattern, gradual opening.
	for i := 0; i < 6; i++ {
		ctl.HandleAck(eng, ack(100*sim.Microsecond, 0, pattern))
		advance()
	}
	want := ctl.PathCount(63)
	if want < 2 {
		t.Fatal("burst 1 did not open paths")
	}
	// Congestion controlled: all paths report medium latency -> H->M saves.
	for _, id := range openPathIDs(ctl, 63) {
		ctl.HandleAck(eng, ack(5*sim.Microsecond, id, pattern))
	}
	if ctl.Stats.PatternsSaved == 0 || ctl.DB().Size() == 0 {
		t.Fatal("solution not saved on H->M")
	}
	// Relax to L: paths close.
	for i := 0; i < 40 && ctl.PathCount(63) > 1; i++ {
		for _, id := range openPathIDs(ctl, 63) {
			ctl.HandleAck(eng, ack(100*sim.Nanosecond, id, nil))
		}
		advance()
	}
	if ctl.PathCount(63) != 1 {
		t.Fatalf("paths did not close between bursts: %d", ctl.PathCount(63))
	}
	// Burst 2: same pattern. One high ACK must restore the full solution.
	ctl.HandleAck(eng, ack(100*sim.Microsecond, 0, pattern))
	if got := ctl.PathCount(63); got != want {
		t.Fatalf("reuse restored %d paths, want %d", got, want)
	}
	if ctl.Stats.ReuseApplications == 0 || ctl.Stats.PatternsReused == 0 {
		t.Fatal("reuse stats not recorded")
	}
}

// A plain DRB controller must not reuse: burst 2 should re-open gradually.
func TestNonPredictiveDoesNotReuse(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	if ctl.DB() != nil {
		t.Fatal("DRB has a solution DB")
	}
	ctl.HandleAck(eng, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
		MSPIndex: 0, PathLatency: 100 * sim.Microsecond}, []network.FlowKey{{Src: 0, Dst: 63}}))
	if ctl.Stats.ReuseApplications != 0 {
		t.Fatal("DRB reused a solution")
	}
}

// FR-DRB: no ACKs within the watchdog window while packets are outstanding
// must trigger path opening.
func TestWatchdogFastResponse(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := FRDRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	pkt := &network.Packet{Type: network.DataPacket, Src: 0, Dst: 63}
	eng.Schedule(0, func(e *sim.Engine) { ctl.PrepareInjection(e, pkt) })
	// The watchdog re-arms while packets stay outstanding, so run to a
	// horizon rather than draining the queue.
	eng.Run(sim.Millisecond)
	if ctl.Stats.WatchdogFirings == 0 {
		t.Fatal("watchdog never fired")
	}
	if ctl.PathCount(63) < 2 {
		t.Fatal("watchdog did not open paths")
	}
	// ACK arrival must disarm the watchdog when nothing is outstanding.
	ctl.HandleAck(eng, &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0, MSPIndex: 0, PathLatency: 100})
	fired := ctl.Stats.WatchdogFirings
	eng.RunAll()
	if ctl.Stats.WatchdogFirings != fired {
		t.Fatal("watchdog fired with no outstanding packets")
	}
}

// TestWatchdogEvent pins the watchdog as one typed controller event per
// destination: the first injection arms it, an ACK that leaves packets
// outstanding re-arms it (the superseded expiry never fires), an ACK that
// leaves none cancels it, and re-arming allocates nothing.
func TestWatchdogEvent(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := FRDRBConfig()
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	ack := &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0, MSPIndex: 0, PathLatency: 100}
	send := func() { ctl.PrepareInjection(eng, &network.Packet{Type: network.DataPacket, Src: 0, Dst: 63}) }
	send()
	send()
	if eng.Len() != 1 || eng.NextEventTime() != cfg.Watchdog {
		t.Fatalf("two injections left %d events, the first at %v; want one expiry at %v", eng.Len(), eng.NextEventTime(), cfg.Watchdog)
	}
	eng.Run(cfg.Watchdog / 2)
	eng.AdvanceTo(cfg.Watchdog / 2)
	ctl.HandleAck(eng, ack) // one packet still outstanding: re-arm
	if eng.Len() != 1 || eng.NextEventTime() != cfg.Watchdog/2+cfg.Watchdog {
		t.Fatalf("the re-arming ACK left %d events, the first at %v", eng.Len(), eng.NextEventTime())
	}
	eng.Run(cfg.Watchdog + 1)
	if ctl.Stats.WatchdogFirings != 0 {
		t.Fatal("the watchdog fired at its superseded deadline")
	}
	ctl.HandleAck(eng, ack) // nothing outstanding: cancel
	if eng.Len() != 0 || ctl.find(63).cold.watchdog.Valid() {
		t.Fatalf("the last ACK left %d events and the watchdog armed=%v", eng.Len(), ctl.find(63).cold.watchdog.Valid())
	}
	send()
	eng.Run(3 * cfg.Watchdog)
	if ctl.Stats.WatchdogFirings == 0 || !ctl.find(63).cold.watchdog.Valid() {
		t.Fatalf("an unanswered packet fired the watchdog %d times and left it armed=%v",
			ctl.Stats.WatchdogFirings, ctl.find(63).cold.watchdog.Valid())
	}
	cd := ctl.find(63).cold
	if avg := testing.AllocsPerRun(100, func() {
		ctl.armWatchdog(eng, cd, 63)
		ctl.armWatchdog(eng, cd, 63) // re-arm while armed: cancel + reschedule
		eng.Run(eng.Now() + 2*cfg.Watchdog)
	}); avg != 0 {
		t.Fatalf("re-arming the watchdog allocates %.2f/run, want 0", avg)
	}
}

// TestFlowEvidenceOnlyPredictive: contending flows reported in an ACK are
// the evidence only the predictive layer reads, so a drb controller keeps
// no record of them while a pr-drb controller does.
func TestFlowEvidenceOnlyPredictive(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	flows := []network.FlowKey{{Src: 0, Dst: 63}, {Src: 5, Dst: 63}}
	for _, cfg := range []Config{DRBConfig(), PRDRBConfig()} {
		eng := sim.NewEngine()
		ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
		ctl.HandleAck(eng, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: 0, PathLatency: 100}, flows))
		cd := ctl.find(63).cold
		switch {
		case !cfg.Predictive && cd != nil:
			t.Errorf("%s made a cold record for its contending flows", ctl.Name())
		case cfg.Predictive && (cd == nil || len(cd.flowSeen) != len(flows)):
			t.Errorf("%s did not record its %d contending flows", ctl.Name(), len(flows))
		}
	}
}

func TestPrepareInjectionSetsWaypoints(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	// Open paths first.
	for i := 0; i < 6; i++ {
		ctl.HandleAck(eng, &network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
			MSPIndex: 0, PathLatency: 100 * sim.Microsecond})
		eng.Schedule(eng.Now()+sim.Microsecond, func(*sim.Engine) {})
		eng.RunAll()
	}
	sawWaypoints := false
	for i := 0; i < 50; i++ {
		pkt := &network.Packet{Type: network.DataPacket, Src: 0, Dst: 63}
		ctl.PrepareInjection(eng, pkt)
		if len(pkt.Waypoints) > 0 {
			sawWaypoints = true
			if pkt.MSPIndex == 0 {
				t.Fatal("waypointed packet carries direct-path MSP index")
			}
		}
	}
	if !sawWaypoints {
		t.Fatal("no packet ever used an alternative path")
	}
}

func TestRouterBasedPredictiveAckTriggersHigh(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := DRBConfig()
	cfg.OpenInterval = 0
	ctl := New(0, topo, eng, cfg, sim.NewRNG(3))
	// Predictive ACK (MSPIndex = -1) signals congestion without latency.
	ctl.HandleAck(eng, withFlows(&network.Packet{Type: network.AckPacket, Src: 63, Dst: 0,
		MSPIndex: -1, Predictive: true, PathLatency: 50 * sim.Microsecond},
		[]network.FlowKey{{Src: 0, Dst: 63}, {Src: 5, Dst: 63}}))
	if ctl.PathCount(63) < 2 {
		t.Fatal("router-based predictive ACK did not open paths")
	}
	if ctl.Stats.PredictiveAcks != 1 {
		t.Fatal("predictive ACK not counted")
	}
}

func TestAggregateStats(t *testing.T) {
	a := &Controller{Stats: Stats{PathsOpened: 2, PatternsSaved: 1}}
	b := &Controller{Stats: Stats{PathsOpened: 3, ReuseApplications: 4}}
	got := AggregateStats([]*Controller{a, nil, b})
	if got.PathsOpened != 5 || got.PatternsSaved != 1 || got.ReuseApplications != 4 {
		t.Fatalf("aggregate = %+v", got)
	}
}
