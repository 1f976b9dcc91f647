package routing

import (
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func buildNet(t *testing.T, topo topology.Topology, pol network.RouterPolicy) *network.Network {
	t.Helper()
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	return network.MustNew(eng, topo, cfg, pol, col)
}

// Every policy must deliver all-to-all traffic on both topology families.
func TestAllPoliciesDeliver(t *testing.T) {
	for _, mk := range []func(routers int) network.RouterPolicy{
		func(int) network.RouterPolicy { return Deterministic{} },
		func(int) network.RouterPolicy { return NewRandom(1) },
		func(routers int) network.RouterPolicy { return NewCyclicSized(routers) },
		func(int) network.RouterPolicy { return Adaptive{} },
	} {
		for _, topo := range []topology.Topology{topology.NewMesh(4, 4), topology.NewKAryNTree(4, 3)} {
			pol := mk(topo.NumRouters())
			net := buildNet(t, topo, pol)
			n := topo.NumTerminals()
			sent := 0
			net.Eng.Schedule(0, func(e *sim.Engine) {
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						if s == d {
							continue
						}
						net.NICs[s].Send(e, topology.NodeID(d), 512, network.MPISend, 0)
						sent++
					}
				}
			})
			net.Eng.Run(sim.Infinity)
			got := net.Shards[0].Collector.Throughput.AcceptedPkts
			if got != int64(sent) {
				t.Fatalf("%s on %s: delivered %d/%d", pol.Name(), topo.Name(), got, sent)
			}
		}
	}
}

// Policies must follow MSP waypoints before resuming their own logic.
func TestPoliciesHonorWaypoints(t *testing.T) {
	topo := topology.NewKAryNTree(4, 3)
	for _, pol := range []network.RouterPolicy{Deterministic{}, NewRandom(2), NewCyclicSized(topo.NumRouters()), Adaptive{}} {
		net := buildNet(t, topo, pol)
		// Waypoint: a specific root switch (level 2).
		root := topo.Switch(2, 7)
		delivered := false
		net.NICs[63].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) {
			delivered = true
		}
		net.NICs[0].Source = &fixedSource{path: topology.Path{root}}
		net.Eng.Schedule(0, func(e *sim.Engine) {
			net.NICs[0].Send(e, 63, 1024, network.MPISend, 0)
		})
		net.Eng.Run(sim.Infinity)
		if !delivered {
			t.Fatalf("%s did not deliver via waypoint", pol.Name())
		}
	}
}

type fixedSource struct{ path topology.Path }

func (f *fixedSource) Name() string { return "fixed" }
func (f *fixedSource) PrepareInjection(_ *sim.Engine, pkt *network.Packet) {
	pkt.Waypoints = append(topology.Path(nil), f.path...)
}
func (f *fixedSource) HandleAck(*sim.Engine, *network.Packet) {}

// Adaptive must spread converging flows across uplinks better than
// deterministic: peak router contention should be no worse.
func TestAdaptiveSpreadsLoad(t *testing.T) {
	topo := topology.NewKAryNTree(4, 3)
	run := func(pol network.RouterPolicy) float64 {
		net := buildNet(t, topo, pol)
		for i := 0; i < 40; i++ {
			at := sim.Time(i) * 3 * sim.Microsecond
			net.Eng.Schedule(at, func(e *sim.Engine) {
				// Convergent flows from one subtree to another.
				for s := 0; s < 16; s++ {
					net.NICs[s].Send(e, topology.NodeID(48+s%16), 1024, network.MPISend, 0)
				}
			})
		}
		net.Eng.Run(sim.Infinity)
		_, peak := net.Shards[0].Collector.Contention.Peak()
		return peak
	}
	det := run(Deterministic{})
	ada := run(Adaptive{})
	if ada > det*1.05 {
		t.Fatalf("adaptive peak %.0f worse than deterministic %.0f", ada, det)
	}
}

// Cyclic must rotate among the minimal ports.
func TestCyclicRotates(t *testing.T) {
	topo := topology.NewKAryNTree(2, 3)
	net := buildNet(t, topo, NewCyclicSized(topo.NumRouters()))
	r := net.Routers[0] // a leaf switch with 2 up ports
	pkt := &network.Packet{Src: 0, Dst: 7, Type: network.DataPacket}
	p1 := net.Policy.OutputPort(r, pkt)
	p2 := net.Policy.OutputPort(r, pkt)
	if p1 == p2 {
		t.Fatalf("cyclic repeated port %d", p1)
	}
	p3 := net.Policy.OutputPort(r, pkt)
	if p3 != p1 {
		t.Fatalf("cyclic did not wrap: %d %d %d", p1, p2, p3)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"deterministic", "random", "cyclic", "adaptive"} {
		if ByName(name, 1, 16, false) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("bogus", 1, 16, false) != nil {
		t.Error("unknown policy accepted")
	}
}
