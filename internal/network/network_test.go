package network

import (
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// detPolicy is an in-package deterministic policy (the real ones live in
// internal/routing; duplicating the 6 lines avoids an import cycle in
// tests).
type detPolicy struct{}

func (detPolicy) Name() string { return "det" }
func (detPolicy) OutputPort(r *Router, pkt *Packet) int {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target)
	}
	return r.Net().Topo.NextHop(r.ID, pkt.Dst)
}

func testNet(t *testing.T, topo topology.Topology, mutate func(*Config)) *Network {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	n, err := New(eng, topo, cfg, detPolicy{}, col)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSingleMessageDelivery(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	e := n.Eng
	var gotSrc topology.NodeID
	var gotBytes int
	n.NICs[15].OnMessage = func(e *sim.Engine, src topology.NodeID, msgID uint64, bytes int, mpiType uint8, mpiSeq uint32) {
		gotSrc, gotBytes = src, bytes
	}
	e.Schedule(0, func(e *sim.Engine) {
		n.NICs[0].Send(e, 15, 1024, MPISend, 7)
	})
	e.RunAll()
	if gotSrc != 0 || gotBytes != 1024 {
		t.Fatalf("message not delivered: src=%d bytes=%d", gotSrc, gotBytes)
	}
	if n.Collector.Throughput.AcceptedPkts != 1 {
		t.Fatalf("accepted %d packets", n.Collector.Throughput.AcceptedPkts)
	}
}

func TestMultiFragmentReassembly(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	e := n.Eng
	done := 0
	n.NICs[5].OnMessage = func(_ *sim.Engine, src topology.NodeID, _ uint64, bytes int, _ uint8, _ uint32) {
		done++
		if bytes != 5000 {
			t.Errorf("reassembled %d bytes, want 5000", bytes)
		}
	}
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 5, 5000, MPISend, 1) })
	e.RunAll()
	if done != 1 {
		t.Fatalf("message completed %d times", done)
	}
	// 5000 bytes at 1024/packet = 5 fragments.
	if n.Collector.Throughput.AcceptedPkts != 5 {
		t.Fatalf("accepted %d packets, want 5", n.Collector.Throughput.AcceptedPkts)
	}
}

func TestZeroByteMessage(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	e := n.Eng
	done := false
	n.NICs[1].OnMessage = func(_ *sim.Engine, _ topology.NodeID, _ uint64, _ int, mpiType uint8, _ uint32) {
		done = true
		if mpiType != MPIBarrier {
			t.Errorf("mpiType = %d", mpiType)
		}
	}
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 0, MPIBarrier, 0) })
	e.RunAll()
	if !done {
		t.Fatal("zero-byte message not delivered")
	}
}

func TestLatencyReflectsDistance(t *testing.T) {
	n := testNet(t, topology.NewMesh(8, 8), nil)
	e := n.Eng
	var lat [2]sim.Time
	for i, dst := range []topology.NodeID{1, 63} {
		i := i
		nic := n.NICs[dst]
		nic.OnMessage = func(e *sim.Engine, _ topology.NodeID, _ uint64, _ int, _ uint8, _ uint32) {}
		_ = nic
		n.Collector = metrics.NewCollector(64, 64, 0)
		start := e.Now()
		doneAt := sim.Time(-1)
		n.NICs[dst].OnMessage = func(e *sim.Engine, _ topology.NodeID, _ uint64, _ int, _ uint8, _ uint32) {
			doneAt = e.Now()
		}
		e.Schedule(start, func(e *sim.Engine) { n.NICs[0].Send(e, dst, 1024, MPISend, 0) })
		e.RunAll()
		if doneAt < 0 {
			t.Fatalf("no delivery to %d", dst)
		}
		lat[i] = doneAt - start
	}
	if lat[1] <= lat[0] {
		t.Fatalf("corner-to-corner latency %v not above neighbor latency %v", lat[1], lat[0])
	}
}

func TestAckReturnsWithPathLatency(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	e := n.Eng
	// ACK records return to the pool after the callback: copy, don't retain.
	var acks []Packet
	n.NICs[0].OnAck = func(_ *sim.Engine, ack *Packet) { acks = append(acks, *ack) }
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 15, 2048, MPISend, 3) })
	e.RunAll()
	if len(acks) != 2 {
		t.Fatalf("got %d ACKs, want 2 (one per fragment)", len(acks))
	}
	for _, a := range acks {
		if a.Type != AckPacket || a.Src != 15 || a.Dst != 0 {
			t.Fatalf("bad ACK: %+v", a)
		}
		if a.PathLatency < 0 {
			t.Fatalf("negative path latency")
		}
		if a.MPISeq != 3 {
			t.Fatalf("ACK lost MPI sequence: %d", a.MPISeq)
		}
	}
}

func TestNoAcksWhenDisabled(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), func(c *Config) { c.GenerateAcks = false })
	e := n.Eng
	got := 0
	n.NICs[0].OnAck = func(*sim.Engine, *Packet) { got++ }
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 15, 1024, MPISend, 0) })
	e.RunAll()
	if got != 0 {
		t.Fatalf("got %d ACKs with GenerateAcks=false", got)
	}
}

func TestWaypointRoutingFollowsMSP(t *testing.T) {
	m := topology.NewMesh(4, 4)
	n := testNet(t, m, func(c *Config) { c.GenerateAcks = false })
	e := n.Eng
	// Send 0 -> 15 via waypoints (3,0)=3 then... single waypoint at router 3.
	delivered := false
	n.NICs[15].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) { delivered = true }
	n.NICs[0].Source = &fixedPathController{path: topology.Path{3}}
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 15, 1024, MPISend, 0) })
	e.RunAll()
	if !delivered {
		t.Fatal("waypointed packet not delivered")
	}
	// The waypoint route 0->3->15 visits routers 1,2,3 (east edge). Check
	// some contention was observed along the east edge, none along the
	// direct XY route's column routers (e.g. router 12).
	if n.Collector.Contention.Count(12) != 0 {
		t.Fatal("packet visited router 12 off the MSP")
	}
}

type fixedPathController struct{ path topology.Path }

func (f *fixedPathController) Name() string { return "fixed" }
func (f *fixedPathController) PrepareInjection(_ *sim.Engine, pkt *Packet) {
	pkt.Waypoints = append(topology.Path(nil), f.path...)
	pkt.MSPIndex = 1
}
func (f *fixedPathController) HandleAck(*sim.Engine, *Packet) {}

// Saturating a single destination from many sources must spread queueing
// backward (backpressure) rather than dropping packets: everything offered
// is eventually accepted.
func TestLosslessUnderHotspot(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), func(c *Config) {
		c.BufferBytes = 16 * 1024 // small buffers to force backpressure
		c.GenerateAcks = false
	})
	e := n.Eng
	const perSource = 40
	sources := []topology.NodeID{0, 3, 12, 5, 10}
	for _, s := range sources {
		s := s
		for i := 0; i < perSource; i++ {
			at := sim.Time(i) * 2 * sim.Microsecond
			e.Schedule(at, func(e *sim.Engine) { n.NICs[s].Send(e, 15, 1024, MPISend, 0) })
		}
	}
	e.RunAll()
	want := int64(len(sources) * perSource)
	if n.Collector.Throughput.AcceptedPkts != want {
		t.Fatalf("accepted %d/%d packets", n.Collector.Throughput.AcceptedPkts, want)
	}
	if n.TotalQueuedBytes() != 0 {
		t.Fatalf("%d bytes still queued after drain", n.TotalQueuedBytes())
	}
	// The hotspot's attach router (15) or its feeders must show contention.
	if n.Collector.Contention.GlobalAvg() <= 0 {
		t.Fatal("hotspot produced no contention at all")
	}
}

func TestContendingFlowsDetected(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), func(c *Config) {
		c.CongestionThreshold = 2 * sim.Microsecond
	})
	e := n.Eng
	seen := map[FlowKey]bool{}
	n.NICs[3].OnAck = func(_ *sim.Engine, ack *Packet) {
		for _, f := range ack.Contending() {
			seen[f] = true
		}
	}
	// Two flows colliding at column x=3: 3->15 and 7->15 share router path.
	for i := 0; i < 30; i++ {
		at := sim.Time(i) * sim.Microsecond
		e.Schedule(at, func(e *sim.Engine) {
			n.NICs[3].Send(e, 15, 1024, MPISend, 0)
			n.NICs[7].Send(e, 15, 1024, MPISend, 0)
		})
	}
	e.RunAll()
	if len(seen) == 0 {
		t.Fatal("no contending flows reported to source 3")
	}
	if !seen[FlowKey{Src: 3, Dst: 15}] || !seen[FlowKey{Src: 7, Dst: 15}] {
		t.Fatalf("contending reports %v missing the colliding flows", seen)
	}
}

func TestRouterBasedNotification(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), func(c *Config) {
		c.CongestionThreshold = 2 * sim.Microsecond
		c.NotifyMode = RouterBased
		c.RouterAckInterval = 5 * sim.Microsecond
	})
	e := n.Eng
	// Copy the first predictive ACK, its contending set included: the record
	// and the set's storage go back to the pool after the callback.
	var predictive *Packet
	n.NICs[3].OnAck = func(_ *sim.Engine, ack *Packet) {
		if ack.Predictive && predictive == nil {
			cp := *ack
			cp.cold = nil
			cp.SetPredictiveHeader(ack.cold.reportRouter, ack.Contending())
			predictive = &cp
		}
	}
	for i := 0; i < 30; i++ {
		at := sim.Time(i) * sim.Microsecond
		e.Schedule(at, func(e *sim.Engine) {
			n.NICs[3].Send(e, 15, 1024, MPISend, 0)
			n.NICs[7].Send(e, 15, 1024, MPISend, 0)
		})
	}
	e.RunAll()
	if predictive == nil {
		t.Fatal("router-based mode produced no predictive ACK")
	}
	if len(predictive.Contending()) == 0 {
		t.Fatal("predictive ACK carries no contending flows")
	}
	if n.PredictiveAcksSent() == 0 {
		t.Fatal("GPA counter not incremented")
	}
}

func TestSelfSendPanics(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	n.Eng.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 0, 100, MPISend, 0) })
	n.Eng.RunAll()
}

func TestSendBeyondFabricPanics(t *testing.T) {
	for _, dst := range []topology.NodeID{-1, 16, 4096} {
		n := testNet(t, topology.NewMesh(4, 4), nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("send to node %d of a 16-terminal mesh did not panic", dst)
				}
			}()
			n.NICs[0].Send(n.Eng, dst, 100, MPISend, 0)
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LinkBandwidthBps = 0 },
		func(c *Config) { c.PacketBytes = 0 },
		func(c *Config) { c.AckBytes = -1 },
		func(c *Config) { c.BufferBytes = 10 },
		func(c *Config) { c.LinkDelay = -1 },
		func(c *Config) { c.MaxContending = 0 },
		func(c *Config) { c.ContendShare = 1.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSerializationTime(t *testing.T) {
	cfg := DefaultConfig()
	// 1024 B at 2 Gbps = 4096 ns.
	if got := cfg.SerializationTime(1024); got != 4096 {
		t.Fatalf("SerializationTime(1024) = %v", got)
	}
}

func TestMergeFlows(t *testing.T) {
	a := []FlowKey{{1, 2}, {3, 4}}
	b := []FlowKey{{3, 4}, {5, 6}, {7, 8}}
	got := mergeFlows(a, b, 3)
	if len(got) != 3 || got[2] != (FlowKey{5, 6}) {
		t.Fatalf("mergeFlows = %v", got)
	}
}

func TestAdvanceHeader(t *testing.T) {
	p := &Packet{Waypoints: topology.Path{4, 7}}
	p.advanceHeader(3)
	if p.HeaderIdx != 0 {
		t.Fatal("advanced at non-waypoint")
	}
	p.advanceHeader(4)
	if p.HeaderIdx != 1 {
		t.Fatal("did not advance at waypoint 1")
	}
	if tgt, ok := p.CurrentTarget(); !ok || tgt != 7 {
		t.Fatalf("CurrentTarget = %v, %v", tgt, ok)
	}
	p.advanceHeader(7)
	if _, ok := p.CurrentTarget(); ok {
		t.Fatal("target remains after final waypoint")
	}
	// Duplicate waypoints collapse in one visit.
	q := &Packet{Waypoints: topology.Path{4, 4}}
	q.advanceHeader(4)
	if q.HeaderIdx != 2 {
		t.Fatalf("duplicate waypoint HeaderIdx = %d", q.HeaderIdx)
	}
}

func TestVCSegmentClasses(t *testing.T) {
	d := &Packet{Type: DataPacket}
	if d.class() != 0 {
		t.Fatal("fresh packet not in class 0")
	}
	d.HeaderIdx = 2
	if d.class() != 2 {
		t.Fatal("final segment not class 2")
	}
	a := &Packet{Type: AckPacket}
	if a.class() != ackClass {
		t.Fatal("ACK not in the ACK class")
	}
}

func TestVCIndexing(t *testing.T) {
	mesh := testNet(t, topology.NewMesh(4, 4), nil)
	if mesh.numVC != numClasses {
		t.Fatalf("mesh physical VCs = %d, want %d", mesh.numVC, numClasses)
	}
	if mesh.vcIndex(2, true) != 2 {
		t.Fatal("dateline bit must be inert without wrap links")
	}
	tor := testNet(t, topology.NewTorus(4, 4), nil)
	if tor.numVC != 2*numClasses {
		t.Fatalf("torus physical VCs = %d, want %d", tor.numVC, 2*numClasses)
	}
	if tor.vcIndex(1, false) != 2 || tor.vcIndex(1, true) != 3 {
		t.Fatal("dateline pair indexing wrong")
	}
	if !tor.isAckVC(tor.vcIndex(ackClass, false)) || !tor.isAckVC(tor.vcIndex(ackClass, true)) {
		t.Fatal("ACK VC classification wrong on torus")
	}
	if tor.isAckVC(tor.vcIndex(0, true)) {
		t.Fatal("data VC classified as ACK")
	}
}

// On a torus, a flow crossing the wraparound must switch to the dateline
// channel: verify packets actually occupy a high VC on the far side.
func TestTorusDatelineUsed(t *testing.T) {
	tor := topology.NewTorus(5, 5)
	n := testNet(t, tor, func(c *Config) { c.GenerateAcks = false })
	// 3 -> 0 wraps east (distance 2 via wrap: x=3 -> 4 -> 0).
	done := false
	n.NICs[0].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) { done = true }
	n.Eng.Schedule(0, func(e *sim.Engine) { n.NICs[3].Send(e, 0, 1024, MPISend, 0) })
	// Track the VC used at router (0,0)'s terminal port via the packet's
	// state after delivery: dateline must have been set crossing 4->0.
	n.Eng.RunAll()
	if !done {
		t.Fatal("wrap route did not deliver")
	}
}
