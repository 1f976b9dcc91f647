package topology

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

func gridTopologies() []*Grid {
	return []*Grid{
		NewGrid([]int{8}, false),
		NewGrid([]int{5}, true),
		NewGrid([]int{4, 4}, false),
		NewGrid([]int{3, 3}, true),
		NewGrid([]int{3, 3, 3}, false),
		NewTorus3D(3, 4, 3),
		NewGrid([]int{2, 2, 2, 2}, false), // 4-D hypercube mesh
	}
}

// At returns the router at the given coordinates.
func (g *Grid) At(c []int) RouterID {
	v := 0
	for d, x := range c {
		v += x * g.stride[d]
	}
	return RouterID(v)
}

func TestGridWiring(t *testing.T) {
	for _, g := range gridTopologies() {
		if err := Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestGridRoutingDelivers(t *testing.T) {
	for _, g := range gridTopologies() {
		n := g.NumTerminals()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				hops := walk(g, NodeID(s), NodeID(d))
				sr, _ := g.TerminalAttach(NodeID(s))
				dr, _ := g.TerminalAttach(NodeID(d))
				if hops != g.Distance(sr, dr) {
					t.Fatalf("%s: %d->%d took %d hops, distance %d", g.Name(), s, d, hops, g.Distance(sr, dr))
				}
			}
		}
	}
}

func TestGridWaypointsDeliver(t *testing.T) {
	for _, g := range []*Grid{NewGrid([]int{3, 3, 3}, false), NewTorus3D(3, 3, 3)} {
		n := g.NumTerminals()
		for s := 0; s < n; s += 3 {
			for d := 1; d < n; d += 5 {
				if s == d {
					continue
				}
				for _, p := range g.AlternativePaths(NodeID(s), NodeID(d), 4) {
					if !followMSP(g, NodeID(s), NodeID(d), p) {
						t.Fatalf("%s: MSP %v for %d->%d failed", g.Name(), p, s, d)
					}
				}
			}
		}
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	g := NewGrid([]int{3, 4, 5}, false)
	f := func(raw uint16) bool {
		r := RouterID(int(raw) % g.NumRouters())
		return g.At(g.CoordOf(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridRing3D(t *testing.T) {
	g := NewGrid([]int{5, 5, 5}, false)
	center := g.At([]int{2, 2, 2})
	// Ring 1 in 3-D: 6 face neighbours.
	if got := len(g.ring(nil, center, 1)); got != 6 {
		t.Fatalf("3-D ring 1 = %d routers, want 6", got)
	}
	// Ring 2: 18 (6 at distance 2 straight + 12 diagonal).
	if got := len(g.ring(nil, center, 2)); got != 18 {
		t.Fatalf("3-D ring 2 = %d routers, want 18", got)
	}
}

func TestGridDatelines(t *testing.T) {
	g := NewTorus3D(3, 3, 3)
	wraps := 0
	for r := RouterID(0); int(r) < g.NumRouters(); r++ {
		for p := 0; p < g.Radix(r); p++ {
			if _, w := g.LinkDim(r, p); w {
				wraps++
			}
		}
	}
	// Each dimension contributes 2 wrap links (one per direction) per ring;
	// 3 dims x 9 rings each x 2 = 54.
	if wraps != 54 {
		t.Fatalf("torus3d wrap links = %d, want 54", wraps)
	}
	m := NewGrid([]int{3, 3, 3}, false)
	for r := RouterID(0); int(r) < m.NumRouters(); r++ {
		for p := 0; p < m.Radix(r); p++ {
			if _, w := m.LinkDim(r, p); w {
				t.Fatal("mesh reported a wrap link")
			}
		}
	}
}

func TestGridConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewGrid(nil, false) },
		func() { NewGrid([]int{0}, false) },
		func() { NewGrid([]int{2, 2}, true) }, // torus dims must be >= 3
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// topologyDigest folds every Topology answer of a shape into one FNV-64a
// value: per-router structure, routing for every (router, port/peer) and
// AlternativePaths for every pair at several budgets (16 and 64 reach the
// third waypoint ring on the larger 2-D shapes).
func topologyDigest(t Topology) uint64 {
	h := fnv.New64a()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	nr, nt := t.NumRouters(), t.NumTerminals()
	var buf []int
	for r := RouterID(0); int(r) < nr; r++ {
		put(t.Radix(r))
		h.Write([]byte(t.RouterLabel(r)))
		for p := 0; p < t.Radix(r); p++ {
			peer := t.PortPeer(r, p)
			dim, wrap := t.LinkDim(r, p)
			w := 0
			if wrap {
				w = 1
			}
			put(int(peer.Router), peer.Port, int(peer.Terminal), dim, w)
		}
		for o := RouterID(0); int(o) < nr; o++ {
			put(t.Distance(r, o))
			if o != r {
				put(t.NextHopToRouter(r, o))
			}
		}
		for n := NodeID(0); int(n) < nt; n++ {
			put(t.NextHop(r, n))
			buf = t.MinimalPorts(r, n, buf)
			put(len(buf))
			put(buf...)
		}
	}
	for _, max := range []int{1, 4, 8, 16, 64} {
		for s := NodeID(0); int(s) < nt; s++ {
			for d := NodeID(0); int(d) < nt; d++ {
				paths := t.AlternativePaths(s, d, max)
				put(len(paths))
				for _, p := range paths {
					put(len(p))
					for _, wp := range p {
						put(int(wp))
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestGrid2DMatchesLegacyMesh pins the 2-D constructors to the deleted
// 2-D-only Mesh type: the constants are topologyDigest of that type's
// NewMesh/NewTorus, recorded at the last commit that had it (31a086b).
func TestGrid2DMatchesLegacyMesh(t *testing.T) {
	for _, c := range []struct {
		g    *Grid
		want uint64
	}{
		{NewMesh(2, 1), 0x113baba764df3ce},
		{NewMesh(4, 4), 0xabc5a148957b4e6d},
		{NewMesh(5, 3), 0xd4ae4ad5c1abc847},
		{NewMesh(3, 7), 0xde6107748703b2fc},
		{NewMesh(8, 8), 0xf6a398268a2c4adc},
		{NewTorus(3, 3), 0xf2df3bbf25d1d50f},
		{NewTorus(4, 4), 0x8a3dd2db12f35c9d},
		{NewTorus(5, 5), 0x9a8fbe917e3b3bd3},
		{NewTorus(3, 6), 0xfdc6e46e0cdc50a6},
		{NewTorus(8, 8), 0xbcc828259587bfa1},
	} {
		if got := topologyDigest(c.g); got != c.want {
			t.Errorf("%s: digest %#x, legacy Mesh %#x", c.g.Name(), got, c.want)
		}
	}
}

// TestGridRoutingZeroAlloc guards the per-hop routing methods: they index
// the coordinate table and must not allocate, in any number of dimensions.
func TestGridRoutingZeroAlloc(t *testing.T) {
	for _, g := range []*Grid{NewMesh(8, 8), NewTorus(8, 8), NewTorus3D(4, 4, 4)} {
		last := RouterID(g.NumRouters() - 1)
		buf := make([]int, 0, 4)
		sink := 0
		allocs := testing.AllocsPerRun(100, func() {
			sink += g.NextHop(0, NodeID(last))
			sink += g.NextHopToRouter(last, 1)
			sink += len(g.MinimalPorts(1, NodeID(last), buf))
			sink += g.Distance(0, last)
			d, _ := g.LinkDim(last, 0)
			sink += d
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per routing round, want 0", g.Name(), allocs)
		}
		_ = sink
	}
}
