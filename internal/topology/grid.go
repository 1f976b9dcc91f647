package topology

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Grid is an n-dimensional mesh or torus (the general "k-ary n-cube"
// family of §2.1.1: meshes "in a 2D or 3D configuration", hypercubes,
// tori) and the only grid-family implementation: the paper's 8x8 mesh
// with 64 processing nodes (§4.6.2, Table 4.2) is NewMesh(8, 8), its n=2
// member. One terminal attaches to every router. Routing is
// dimension-ordered (dimension 0 first), the standard deadlock-free
// deterministic baseline (§2.1.4); on a torus the edge closing each ring
// (from the last coordinate back to 0 and vice versa) is a dateline.
//
// Port layout: ports 2d and 2d+1 are the +/- directions of dimension d
// (in 2-D: 0=+X east, 1=-X west, 2=+Y north, 3=-Y south); the last port
// is the terminal.
type Grid struct {
	Dims []int
	Wrap bool

	stride []int // stride[d] = product of Dims[:d]
	size   int
	// coord[r*len(Dims)+d] is router r's coordinate in dimension d. The
	// per-hop routing methods index it instead of dividing r down, so they
	// allocate nothing; it is read-only after NewGrid.
	coord []int32
	rings int // waypoint rings AlternativePaths searches, see ringDepth
}

// NewGrid builds an n-dimensional mesh (wrap=false) or torus (wrap=true).
// Tori need every dimension >= 3 so wrap links are distinct.
func NewGrid(dims []int, wrap bool) *Grid {
	if err := checkGrid(dims, wrap); err != nil {
		panic(err)
	}
	g := &Grid{Dims: append([]int(nil), dims...), Wrap: wrap, rings: ringDepth(dims)}
	g.stride = make([]int, len(dims))
	g.size = 1
	for d, k := range dims {
		g.stride[d] = g.size
		g.size *= k
	}
	n := len(dims)
	g.coord = make([]int32, g.size*n)
	for r := 0; r < g.size; r++ {
		v := r
		for d, k := range dims {
			g.coord[r*n+d] = int32(v % k)
			v /= k
		}
	}
	return g
}

// checkGrid reports why dims cannot form a mesh or (wrap) a torus.
func checkGrid(dims []int, wrap bool) error {
	if len(dims) == 0 {
		return errors.New("topology: grid needs at least one dimension")
	}
	for _, k := range dims {
		if k <= 0 || (wrap && k < 3) {
			return fmt.Errorf("topology: invalid grid dimension %d (wrap=%v)", k, wrap)
		}
	}
	return nil
}

// ringDepth is how many rings of waypoints AlternativePaths searches
// around the source and destination routers: two, and a third on 2-D grids
// larger than 4+4, where requests past 8 paths (core asks for 2*MaxPaths)
// outrun the first two rings on some pairs. It is a function of the shape,
// not a setting, so two grids of one shape cannot answer differently; the
// committed goldens and TestGrid2DMatchesLegacyMesh pin its answers.
func ringDepth(dims []int) int {
	if len(dims) == 2 && dims[0]+dims[1] > 8 {
		return 3
	}
	return 2
}

// NewMesh returns a w x h mesh.
func NewMesh(w, h int) *Grid { return NewGrid([]int{w, h}, false) }

// NewTorus returns a w x h torus (closed mesh, §2.1.1); dimensions must be
// at least 3.
func NewTorus(w, h int) *Grid { return NewGrid([]int{w, h}, true) }

// NewTorus3D returns an x*y*z torus (3-D k-ary n-cube).
func NewTorus3D(x, y, z int) *Grid { return NewGrid([]int{x, y, z}, true) }

// Name implements Topology.
func (g *Grid) Name() string {
	parts := make([]string, len(g.Dims))
	for i, k := range g.Dims {
		parts[i] = fmt.Sprint(k)
	}
	kind := "mesh"
	if g.Wrap {
		kind = "torus"
	}
	return kind + strings.Join(parts, "x")
}

// NumTerminals implements Topology.
func (g *Grid) NumTerminals() int { return g.size }

// NumRouters implements Topology.
func (g *Grid) NumRouters() int { return g.size }

// Radix implements Topology.
func (g *Grid) Radix(RouterID) int { return 2*len(g.Dims) + 1 }

func (g *Grid) termPort() int { return 2 * len(g.Dims) }

// pos returns router r's coordinate in dimension d.
func (g *Grid) pos(r RouterID, d int) int { return int(g.coord[int(r)*len(g.Dims)+d]) }

// CoordOf returns router r's coordinates.
func (g *Grid) CoordOf(r RouterID) []int {
	c := make([]int, len(g.Dims))
	for d := range c {
		c[d] = g.pos(r, d)
	}
	return c
}

// RouterLabel implements Topology.
func (g *Grid) RouterLabel(r RouterID) string {
	c := g.CoordOf(r)
	parts := make([]string, len(c))
	for i, x := range c {
		parts[i] = fmt.Sprint(x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// PortPeer implements Topology.
func (g *Grid) PortPeer(r RouterID, p int) Peer {
	if p == g.termPort() {
		return Peer{Router: None, Terminal: NodeID(r)}
	}
	d, dir := p/2, p%2 // dir 0 = +, 1 = -
	x, k := g.pos(r, d), g.Dims[d]
	nx := x + 1 - 2*dir
	if g.Wrap {
		nx = (nx + k) % k
	} else if nx < 0 || nx >= k {
		return Peer{Router: None, Terminal: -1}
	}
	// Peer's port back toward us is the opposite direction of dimension d.
	back := 2*d + (1 - dir)
	return Peer{Router: r + RouterID((nx-x)*g.stride[d]), Port: back, Terminal: -1}
}

// TerminalAttach implements Topology: terminal i lives on router i.
func (g *Grid) TerminalAttach(t NodeID) (RouterID, int) {
	return RouterID(t), g.termPort()
}

// LinkDim implements Topology.
func (g *Grid) LinkDim(r RouterID, p int) (int, bool) {
	if p == g.termPort() {
		return -1, false
	}
	d, dir := p/2, p%2
	if !g.Wrap {
		return d, false
	}
	x := g.pos(r, d)
	// The + wrap leaves the last coordinate; the - wrap leaves coordinate 0.
	wrap := (dir == 0 && x == g.Dims[d]-1) || (dir == 1 && x == 0)
	return d, wrap
}

// delta returns the signed displacement from a to b in dimension d, the
// short way around on a torus.
func (g *Grid) delta(a, b RouterID, d int) int {
	dd := g.pos(b, d) - g.pos(a, d)
	if g.Wrap {
		k := g.Dims[d]
		if dd > k/2 {
			dd -= k
		} else if dd < -k/2 {
			dd += k
		}
	}
	return dd
}

// Distance implements Topology (Manhattan, wrapped on tori).
func (g *Grid) Distance(a, b RouterID) int {
	total := 0
	for d := range g.Dims {
		total += abs(g.delta(a, b, d))
	}
	return total
}

// NextHopToRouter implements Topology (dimension order).
func (g *Grid) NextHopToRouter(r, target RouterID) int {
	if r == target {
		panic("topology: NextHopToRouter with r == target")
	}
	for d := range g.Dims {
		dd := g.delta(r, target, d)
		if dd > 0 {
			return 2 * d
		}
		if dd < 0 {
			return 2*d + 1
		}
	}
	panic("topology: unreachable")
}

// NextHop implements Topology.
func (g *Grid) NextHop(r RouterID, dst NodeID) int {
	tr, tp := g.TerminalAttach(dst)
	if r == tr {
		return tp
	}
	return g.NextHopToRouter(r, tr)
}

// MinimalPorts implements Topology. On meshes and tori the productive
// ports are restricted to dimension order: free dimension interleaving
// under single-VC-per-class flow control has the classic adaptive-routing
// deadlock (it needs Duato-style escape channels the paper's router does
// not have), and the paper only exercises per-hop adaptive/oblivious
// choice on the fat tree, where ascent choice is structurally safe. Within
// a dimension there is exactly one minimal direction, so grid adaptivity
// degenerates to the deterministic route — path diversity on grids comes
// from DRB's multistep paths instead.
func (g *Grid) MinimalPorts(r RouterID, dst NodeID, buf []int) []int {
	return append(buf[:0], g.NextHop(r, dst))
}

// AlternativePaths implements Topology. Candidate MSPs use two waypoint
// routers, one near the source router and one near the destination router
// (IN1, IN2 of §3.2.3, Fig 3.6), taken from rings of increasing distance
// so path expansion is gradual: ring-1 detours first, then ring-2, etc.
// Within a ring, candidates are ordered by total routed length (Eq 3.2) so
// the cheapest detours open first.
func (g *Grid) AlternativePaths(src, dst NodeID, max int) []Path {
	sr, _ := g.TerminalAttach(src)
	dr, _ := g.TerminalAttach(dst)
	if sr == dr || max <= 0 {
		return nil
	}
	direct := g.Distance(sr, dr)
	var out []Path
	var srcSide, dstSide []RouterID
	var cands []waypointPair
	for ring := 1; ring <= g.rings && len(out) < max; ring++ {
		srcSide = g.ring(srcSide[:0], sr, ring)
		dstSide = g.ring(dstSide[:0], dr, ring)
		cands = slices.Grow(cands[:0], len(srcSide)*len(dstSide))
		for _, a := range srcSide {
			for _, b := range dstSide {
				if a == dr || b == sr || a == sr || b == dr {
					continue
				}
				cost := g.Distance(sr, a) + g.Distance(a, b) + g.Distance(b, dr)
				// Reject detours that more than double the direct length:
				// the paper selects shorter paths to bound transmission
				// time (§3.2.6).
				if cost > 2*direct+2 {
					continue
				}
				cands = append(cands, waypointPair{a: a, b: b, cost: cost})
			}
		}
		slices.SortStableFunc(cands, waypointPair.compare)
		for _, c := range cands {
			p := c.path()
			if containsPath(out, p) {
				continue
			}
			out = append(out, p)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

// waypointPair is an AlternativePaths candidate: the MSP through a, near
// the source, then b, near the destination — or through the one router
// when they coincide — and its routed length.
type waypointPair struct {
	a, b RouterID
	cost int
}

func (c waypointPair) path() Path {
	if c.a == c.b {
		return Path{c.a}
	}
	return Path{c.a, c.b}
}

// compare orders candidates by cost, then by their paths, waypoint by
// waypoint: a one-waypoint path is a prefix of, so sorts before, every
// two-waypoint path that starts with it.
func (c waypointPair) compare(d waypointPair) int {
	if c.cost != d.cost {
		return c.cost - d.cost
	}
	if c.a != d.a {
		return int(c.a) - int(d.a)
	}
	switch {
	case c.a == c.b:
		if d.a == d.b {
			return 0
		}
		return -1
	case d.a == d.b:
		return 1
	}
	return int(c.b) - int(d.b)
}

// ring appends to out the routers at displacement vectors of Manhattan
// length exactly dist from r (on a torus some wrap onto closer routers, and
// onto each other: each router is listed once, r itself never), dimension 0
// varying slowest and each dimension from its negative end.
func (g *Grid) ring(out []RouterID, r RouterID, dist int) []RouterID {
	return g.ringFrom(out, r, 0, dist, 0)
}

// ringFrom extends a displacement chosen for dimensions below d, which
// lands on linear index at, by every choice for the rest that spends
// exactly remaining more hops.
func (g *Grid) ringFrom(out []RouterID, r RouterID, d, remaining, at int) []RouterID {
	if d == len(g.Dims) {
		if rr := RouterID(at); remaining == 0 && rr != r && !slices.Contains(out, rr) {
			out = append(out, rr)
		}
		return out
	}
	k := g.Dims[d]
	for v := -remaining; v <= remaining; v++ {
		x := g.pos(r, d) + v
		if g.Wrap {
			x = (x%k + k) % k
		} else if x < 0 || x >= k {
			continue
		}
		out = g.ringFrom(out, r, d+1, remaining-abs(v), at+x*g.stride[d])
	}
	return out
}

func containsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
