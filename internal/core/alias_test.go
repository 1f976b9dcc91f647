package core

import (
	"slices"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// TestWaypointsAliasImmutablePaths pins the two halves of the aliasing
// invariant on a hot-spot run in which every source opens paths.
// PrepareInjection hands a packet its path's own waypoint record, not a
// copy; and nothing writes through such a record: after the run every open
// path, every pool candidate and every cached enumeration still reads what
// the topology enumerates, which an in-place edit anywhere — the fabric
// consuming waypoints, a controller trimming a path — would break, because
// the records are shared by the path cache, the metapaths and the packets.
func TestWaypointsAliasImmutablePaths(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	net, err := network.New(eng, topo, network.DefaultConfig(), routing.Deterministic{}, col)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PRDRBConfig()
	cfg.OpenInterval = 0 // open on every congested ACK
	cfg.IdleReset = 0    // keep what opened until the checks below
	ctls := Install(net, cfg, 11)
	for _, src := range []topology.NodeID{0, 1, 4, 5} {
		src := src
		var tick func(e *sim.Engine)
		tick = func(e *sim.Engine) {
			if e.Now() >= 300*sim.Microsecond {
				return
			}
			net.NICs[src].Send(e, 15, 1024, network.MPISend, 0)
			e.After(2*sim.Microsecond, tick)
		}
		eng.Schedule(0, tick)
	}
	eng.RunAll()

	open, aliased := 0, 0
	for _, mp := range ctls[0].sh.index.slots {
		if mp == nil {
			continue
		}
		c, dst := ctls[mp.src], topology.NodeID(mp.dst)
		fresh := topo.AlternativePaths(c.Node, dst, 2*cfg.MaxPaths)
		if cached := c.sh.pathCache.Paths(c.Node, dst); !slices.EqualFunc(cached, fresh, topology.Path.Equal) {
			t.Fatalf("%d->%d: cached enumeration %v, topology enumerates %v", c.Node, dst, cached, fresh)
		}
		var one [1]pathState
		for _, p := range mp.states(&one)[1:] {
			if !slices.ContainsFunc(fresh, p.path.Equal) {
				t.Fatalf("%d->%d: open path %v is none of the enumerated %v", c.Node, dst, p.path, fresh)
			}
			open++
		}
		var pool []topology.Path
		if mp.cold != nil {
			pool = mp.cold.pool
		}
		if tail := fresh[len(fresh)-len(pool):]; !slices.EqualFunc(pool, tail, topology.Path.Equal) {
			t.Fatalf("%d->%d: pool %v, want the enumeration's tail %v", c.Node, dst, pool, tail)
		}
		for try := 0; try < 64 && len(mp.paths) > 1; try++ {
			pkt := &network.Packet{Dst: dst}
			c.PrepareInjection(eng, pkt)
			if len(pkt.Waypoints) == 0 {
				continue
			}
			if p := mp.byID(pkt.MSPIndex); &pkt.Waypoints[0] != &p.path[0] || len(pkt.Waypoints) != len(p.path) {
				t.Fatalf("%d->%d: packet carries a copy of path %d's waypoints", c.Node, dst, pkt.MSPIndex)
			}
			aliased++
			break
		}
	}
	if open < 4 || aliased == 0 {
		t.Fatalf("hot spot left %d open paths and %d multipath injections to check", open, aliased)
	}
}
