package topology

import (
	"testing"
	"testing/quick"
)

func allTopologies() []Topology {
	return []Topology{
		NewMesh(4, 4),
		NewMesh(8, 8),
		NewMesh(5, 3),
		NewTorus(4, 4),
		NewTorus(5, 5),
		NewKAryNTree(2, 2),
		NewKAryNTree(2, 3),
		NewKAryNTree(4, 2),
		NewKAryNTree(4, 3),
		NewDragonfly(2, 3, 1, 1),
		NewDragonfly(4, 5, 1, 2),
		NewDragonfly(4, 9, 2, 2),
	}
}

func TestValidateWiring(t *testing.T) {
	for _, topo := range allTopologies() {
		if err := Validate(topo); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestSizes(t *testing.T) {
	ft := NewKAryNTree(4, 3)
	if ft.NumTerminals() != 64 {
		t.Errorf("4-ary 3-tree terminals = %d, want 64", ft.NumTerminals())
	}
	if ft.NumRouters() != 48 {
		t.Errorf("4-ary 3-tree routers = %d, want 48", ft.NumRouters())
	}
	m := NewMesh(8, 8)
	if m.NumTerminals() != 64 || m.NumRouters() != 64 {
		t.Errorf("8x8 mesh sizes wrong: %d/%d", m.NumTerminals(), m.NumRouters())
	}
}

// walk follows deterministic NextHop from src's router to dst, returning the
// hop count, or -1 if it loops.
func walk(topo Topology, src, dst NodeID) int {
	r, _ := topo.TerminalAttach(src)
	limit := 4 * (topo.NumRouters() + 2)
	for hops := 0; hops < limit; hops++ {
		p := topo.NextHop(r, dst)
		peer := topo.PortPeer(r, p)
		if peer.IsTerminal() {
			if peer.Terminal == dst {
				return hops
			}
			return -1
		}
		r = peer.Router
	}
	return -1
}

func TestDeterministicRoutingDelivers(t *testing.T) {
	for _, topo := range allTopologies() {
		n := topo.NumTerminals()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				if walk(topo, NodeID(s), NodeID(d)) < 0 {
					t.Fatalf("%s: deterministic route %d->%d failed", topo.Name(), s, d)
				}
			}
		}
	}
}

func TestMeshRoutingIsMinimal(t *testing.T) {
	m := NewMesh(8, 8)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			sr, _ := m.TerminalAttach(NodeID(s))
			dr, _ := m.TerminalAttach(NodeID(d))
			hops := walk(m, NodeID(s), NodeID(d))
			if hops != m.Distance(sr, dr) {
				t.Fatalf("mesh %d->%d: %d hops, distance %d", s, d, hops, m.Distance(sr, dr))
			}
		}
	}
}

func TestTreeRoutingIsMinimal(t *testing.T) {
	ft := NewKAryNTree(4, 3)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			hops := walk(ft, NodeID(s), NodeID(d))
			// Minimal = the leaf switches' distance, 2 * NCA level.
			rs, _ := ft.TerminalAttach(NodeID(s))
			rd, _ := ft.TerminalAttach(NodeID(d))
			if want := ft.Distance(rs, rd); hops != want {
				t.Fatalf("tree %d->%d: %d hops, want %d", s, d, hops, want)
			}
		}
	}
}

func TestMinimalPortsContainNextHop(t *testing.T) {
	for _, topo := range allTopologies() {
		n := topo.NumTerminals()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				r, _ := topo.TerminalAttach(NodeID(s))
				hop := topo.NextHop(r, NodeID(d))
				found := false
				for _, p := range topo.MinimalPorts(r, NodeID(d), nil) {
					if p == hop {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: NextHop(%d->%d)=%d not in MinimalPorts", topo.Name(), s, d, hop)
				}
			}
		}
	}
}

// Every minimal port must lead to a router exactly one hop closer to the
// destination's router (productivity), which makes minimal adaptive routing
// loop-free: any sequence of minimal choices terminates.
func TestMinimalPortsAreProductive(t *testing.T) {
	for _, topo := range []Topology{NewMesh(6, 6), NewTorus(5, 5), NewKAryNTree(4, 3), NewDragonfly(4, 9, 2, 2)} {
		n := topo.NumTerminals()
		for s := 0; s < n; s += 3 {
			for d := 0; d < n; d += 5 {
				if s == d {
					continue
				}
				dst := NodeID(d)
				dr, _ := topo.TerminalAttach(dst)
				for r := RouterID(0); int(r) < topo.NumRouters(); r++ {
					for _, p := range topo.MinimalPorts(r, dst, nil) {
						peer := topo.PortPeer(r, p)
						if peer.IsTerminal() {
							if peer.Terminal != dst {
								t.Fatalf("%s: minimal port at r%d exits at terminal %d, want %d",
									topo.Name(), r, peer.Terminal, dst)
							}
							continue
						}
						if peer.Unwired() {
							t.Fatalf("%s: minimal port at r%d toward %d is unwired", topo.Name(), r, dst)
						}
						cur, nxt := topo.Distance(r, dr), topo.Distance(peer.Router, dr)
						if nxt != cur-1 {
							t.Fatalf("%s: minimal port r%d->r%d for dst %d: distance %d -> %d",
								topo.Name(), r, peer.Router, dst, cur, nxt)
						}
					}
				}
			}
		}
	}
}

func TestWaypointRoutingDelivers(t *testing.T) {
	for _, topo := range allTopologies() {
		n := topo.NumTerminals()
		for s := 0; s < n; s += 2 {
			for d := 1; d < n; d += 3 {
				if s == d {
					continue
				}
				for _, path := range topo.AlternativePaths(NodeID(s), NodeID(d), 6) {
					if !followMSP(topo, NodeID(s), NodeID(d), path) {
						t.Fatalf("%s: MSP %v for %d->%d does not deliver", topo.Name(), path, s, d)
					}
				}
			}
		}
	}
}

// followMSP simulates header-based multistep routing (§3.3.1): route to each
// waypoint in turn, then to the destination terminal.
func followMSP(topo Topology, src, dst NodeID, msp Path) bool {
	r, _ := topo.TerminalAttach(src)
	idx := 0
	limit := 8 * (topo.NumRouters() + 2)
	for hops := 0; hops < limit; hops++ {
		for idx < len(msp) && msp[idx] == r {
			idx++ // waypoint reached: advance Header_id
		}
		var p int
		if idx < len(msp) {
			p = topo.NextHopToRouter(r, msp[idx])
		} else {
			p = topo.NextHop(r, dst)
		}
		peer := topo.PortPeer(r, p)
		if peer.IsTerminal() {
			return peer.Terminal == dst && idx == len(msp)
		}
		if peer.Unwired() {
			return false
		}
		r = peer.Router
	}
	return false
}

func TestAlternativePathsDistinct(t *testing.T) {
	for _, topo := range allTopologies() {
		paths := topo.AlternativePaths(0, NodeID(topo.NumTerminals()-1), 8)
		for i := range paths {
			for j := i + 1; j < len(paths); j++ {
				if paths[i].Equal(paths[j]) {
					t.Fatalf("%s: duplicate alternative paths %v", topo.Name(), paths[i])
				}
			}
		}
	}
}

func TestAlternativePathsBounded(t *testing.T) {
	topo := NewMesh(8, 8)
	for _, max := range []int{0, 1, 3, 7} {
		got := topo.AlternativePaths(0, 63, max)
		if len(got) > max {
			t.Fatalf("AlternativePaths returned %d > max %d", len(got), max)
		}
	}
}

// TestTreeCommonAncestors pins the nearest common ancestors AlternativePaths
// draws from: ancestorsAt at ncaLevel.
func TestTreeCommonAncestors(t *testing.T) {
	ft := NewKAryNTree(4, 3)
	for _, c := range []struct {
		src, dst     NodeID
		level, count int
	}{
		{0, 1, 0, 1},   // one leaf switch
		{0, 5, 1, 4},   // leaf words differ in digit 0
		{0, 63, 2, 16}, // every root
	} {
		first, count := ft.ancestorsAt(c.src, ft.ncaLevel(c.src, c.dst))
		if count != c.count || ft.Level(first) != c.level {
			t.Fatalf("NCAs of %d and %d: %d from %s, want %d at level %d", c.src, c.dst, count, ft.RouterLabel(first), c.count, c.level)
		}
	}
}

func TestTreeIsAncestor(t *testing.T) {
	ft := NewKAryNTree(2, 3)
	for d := NodeID(0); d < 8; d++ {
		leaf, _ := ft.TerminalAttach(d)
		if !ft.IsAncestor(leaf, d) {
			t.Fatalf("leaf switch of %d not its ancestor", d)
		}
	}
	// Every root is an ancestor of every terminal.
	for w := 0; w < 4; w++ {
		root := ft.Switch(2, w)
		for d := NodeID(0); d < 8; d++ {
			if !ft.IsAncestor(root, d) {
				t.Fatalf("root %v not ancestor of %d", root, d)
			}
		}
	}
}

func TestPathLength(t *testing.T) {
	m := NewMesh(4, 4)
	// 0 -> 15 direct distance is 6; via waypoint at (3,0)=3 it is 3+3=6.
	if got := PathLength(m, 0, 15, nil); got != 6 {
		t.Fatalf("direct PathLength = %d", got)
	}
	if got := PathLength(m, 0, 15, Path{3}); got != 6 {
		t.Fatalf("via-corner PathLength = %d", got)
	}
	if got := PathLength(m, 0, 15, Path{1, 2}); got != 6 {
		t.Fatalf("via edge PathLength = %d", got)
	}
}

func TestDistanceSymmetricProperty(t *testing.T) {
	topos := allTopologies()
	f := func(ti uint8, a, b uint16) bool {
		topo := topos[int(ti)%len(topos)]
		ra := RouterID(int(a) % topo.NumRouters())
		rb := RouterID(int(b) % topo.NumRouters())
		d1, d2 := topo.Distance(ra, rb), topo.Distance(rb, ra)
		if d1 != d2 || d1 < 0 {
			return false
		}
		return (ra == rb) == (d1 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusWrapsShorter(t *testing.T) {
	tor := NewTorus(8, 8)
	// Corner to corner on a torus is 2 hops, not 14.
	if d := tor.Distance(tor.At([]int{0, 0}), tor.At([]int{7, 7})); d != 2 {
		t.Fatalf("torus corner distance = %d, want 2", d)
	}
	if hops := walk(tor, 0, 63); hops != 2 {
		t.Fatalf("torus corner route = %d hops, want 2", hops)
	}
}

func TestMeshRing(t *testing.T) {
	m := NewMesh(8, 8)
	center := m.At([]int{4, 4})
	ring1 := m.ring(nil, center, 1)
	if len(ring1) != 4 {
		t.Fatalf("ring 1 around center has %d routers, want 4", len(ring1))
	}
	ring2 := m.ring(nil, center, 2)
	if len(ring2) != 8 {
		t.Fatalf("ring 2 around center has %d routers, want 8", len(ring2))
	}
	corner := m.At([]int{0, 0})
	if got := len(m.ring(nil, corner, 1)); got != 2 {
		t.Fatalf("ring 1 around corner has %d routers, want 2", got)
	}
}

func TestRouterLabels(t *testing.T) {
	m := NewMesh(8, 8)
	if got := m.RouterLabel(m.At([]int{3, 1})); got != "(3,1)" {
		t.Fatalf("mesh label = %q", got)
	}
	ft := NewKAryNTree(4, 3)
	if got := ft.RouterLabel(ft.Switch(2, 5)); got != "L2.S05" {
		t.Fatalf("tree label = %q", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewMesh(0, 4) },
		func() { NewTorus(2, 4) },
		func() { NewKAryNTree(1, 3) },
		func() { NewKAryNTree(4, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor did not panic", i)
				}
			}()
			fn()
		}()
	}
}
