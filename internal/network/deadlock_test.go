package network

import (
	"testing"

	"prdrb/internal/topology"
)

// Every supported topology must have an acyclic channel dependency graph
// under direct routing + DRB alternatives + ACK returns — the formal
// backing for §3.3's "deadlock would not be a problem".
func TestDeadlockFreedomAllTopologies(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewMesh(8, 8),
		topology.NewMesh(5, 3),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 5),
		topology.NewTorus(8, 8),
		topology.NewKAryNTree(2, 2),
		topology.NewKAryNTree(2, 3),
		topology.NewKAryNTree(4, 3),
		topology.NewGrid([]int{3, 3, 3}, false),
		topology.NewTorus3D(3, 3, 3),
		topology.NewTorus3D(4, 3, 5),
		// Dragonfly's two-VC scheme rides the dateline machinery: global
		// links are wrap links, so VC0 carries pre-global local hops and
		// VC1 post-global ones — acyclic per traffic class.
		topology.NewDragonfly(2, 3, 1, 1),
		topology.NewDragonfly(4, 5, 1, 2),
		topology.NewDragonfly(4, 4, 1, 1),
		topology.NewDragonfly(4, 9, 2, 2),
	} {
		if err := checkDeadlockFreedom(topo, 6); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// datelessTorus wraps a torus but hides its wrap links, reproducing the
// classical single-VC torus: the checker must find the ring cycle. This
// guards the checker itself against false negatives.
type datelessTorus struct{ *topology.Grid }

func (d datelessTorus) LinkDim(r topology.RouterID, p int) (int, bool) {
	dim, _ := d.Grid.LinkDim(r, p)
	return dim, false // pretend there are no datelines
}

func TestCheckerCatchesTorusRingCycle(t *testing.T) {
	// A 4-ring under minimal routing never chains more than half the ring,
	// so use sizes whose journeys close the ring: 5 (odd) and 8.
	for _, tor := range []datelessTorus{
		{topology.NewTorus(5, 5)},
		{topology.NewTorus(8, 8)},
	} {
		if err := checkDeadlockFreedom(tor, 0); err == nil {
			t.Fatalf("single-VC %s passed the deadlock check; the checker is blind", tor.Name())
		}
	}
}

func TestCycleDetector(t *testing.T) {
	g := newDepGraph()
	a := channel{r: 0, p: 0, vc: 0}
	b := channel{r: 1, p: 0, vc: 0}
	c := channel{r: 2, p: 0, vc: 0}
	g.add(a, b)
	g.add(b, c)
	if g.cycle() != nil {
		t.Fatal("acyclic chain reported cyclic")
	}
	g.add(c, a)
	cyc := g.cycle()
	if len(cyc) != 3 {
		t.Fatalf("cycle length %d, want 3", len(cyc))
	}
}
