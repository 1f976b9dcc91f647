package topology

import (
	"fmt"
	"slices"
)

// Dragonfly is the canonical hierarchical direct network of datacenter
// and HPC deployments (Kim/Dally/Scott/Abts, ISCA 2008): G groups of A
// routers each, every group internally a complete graph (one hop between
// any two routers of a group), and every router contributing H global
// channels so each group pair is joined by at least one direct global
// link. P terminals attach per router, so the shape serves A*G*P nodes
// with routers of radix (A-1)+H+P.
//
// Minimal routes are at most local-global-local (three router hops), so
// the diameter is independent of scale — the property that makes the
// shape interesting at thousands of endpoints. Deadlock freedom uses the
// standard two-virtual-channel scheme, expressed through the existing
// dateline machinery: every router-router link reports dimension 0 and
// global links report wrap=true, so a packet moves from VC0 to VC1 of its
// class exactly when it crosses a global channel. Local channels before
// the global hop (VC0) only ever wait on global channels, and local
// channels after it (VC1) only on terminals — the dependency graph per
// class is acyclic (internal/network/deadlockcheck_test.go checks this).
//
// All wiring state is O(total ports): the per-router global peer table
// and the per-group-pair link lists together store each global link a
// constant number of times. Nothing is O(N^2).
type Dragonfly struct {
	A int // routers per group
	G int // groups
	H int // global channels per router
	P int // terminals per router

	// globalPeer[r][c] is the far end of router r's global channel c.
	globalPeer [][]Peer
	// pair[gi*G+gj] lists the global links from group gi to group gj in
	// deterministic construction order.
	pair [][]dfLink
}

// dfLink is one directed view of a global link.
type dfLink struct {
	src  RouterID // gateway router in the source group
	port int      // global port on src
	dst  RouterID // entry router in the destination group
}

// NewDragonfly builds a Dragonfly(a, g, h) with p terminals per router.
// Every group pair must receive at least one global link, so a*h >= g-1;
// remainder links (when a*h is not a multiple of g-1) are distributed as
// a circulant so every group keeps exactly a*h global endpoints.
func NewDragonfly(a, g, h, p int) *Dragonfly {
	if err := checkDragonfly(a, g, h, p); err != nil {
		panic(err)
	}
	d := &Dragonfly{A: a, G: g, H: h, P: p}
	d.wireGlobals()
	return d
}

// checkDragonfly reports why the parameters cannot form a Dragonfly.
func checkDragonfly(a, g, h, p int) error {
	if a < 2 || g < 2 || h < 1 || p < 1 {
		return fmt.Errorf("topology: invalid dragonfly a=%d g=%d h=%d p=%d", a, g, h, p)
	}
	if a*h < g-1 {
		return fmt.Errorf("topology: dragonfly a=%d h=%d cannot connect %d groups (need a*h >= g-1)", a, h, g)
	}
	if rem := (a * h) % (g - 1); rem%2 == 1 && g%2 == 1 {
		return fmt.Errorf("topology: dragonfly a=%d g=%d h=%d leaves an odd remainder %d on an odd group count; adjust h", a, g, h, rem)
	}
	return nil
}

// linkCount returns the number of global links between distinct groups i
// and j: the uniform quota plus circulant-distributed remainder links.
func (d *Dragonfly) linkCount(i, j int) int {
	q := (d.A * d.H) / (d.G - 1)
	rem := (d.A * d.H) % (d.G - 1)
	if rem == 0 {
		return q
	}
	// Remainder links form a rem-regular circulant on the group ring:
	// offsets 1..rem/2 in both directions, plus the antipode when rem is
	// odd (G even in that case, enforced by the constructor).
	diff := (j - i + d.G) % d.G
	if diff > d.G/2 {
		diff = d.G - diff
	}
	if diff >= 1 && diff <= rem/2 {
		return q + 1
	}
	if rem%2 == 1 && d.G%2 == 0 && diff == d.G/2 {
		return q + 1
	}
	return q
}

// wireGlobals assigns every group's a*h global endpoints to its link list
// (peer groups in ring order from the group, link copies in order) and
// wires the k-th link of each pair end to end.
func (d *Dragonfly) wireGlobals() {
	routers := d.A * d.G
	d.globalPeer = make([][]Peer, routers)
	for r := range d.globalPeer {
		d.globalPeer[r] = make([]Peer, d.H)
	}
	d.pair = make([][]dfLink, d.G*d.G)

	// endpoint e of group i lives on router i*A + e/H, global channel e%H.
	endpoint := func(group, e int) (RouterID, int) {
		return RouterID(group*d.A + e/d.H), e % d.H
	}
	// Enumerate each group's links in deterministic order and record the
	// endpoint index each link consumes.
	type linkRef struct{ peer, copy int }
	order := make([][]linkRef, d.G)
	// first[i*G+j] is where group i's links to group j start in order[i];
	// the copies follow contiguously.
	first := make([]int, d.G*d.G)
	for i := 0; i < d.G; i++ {
		for diff := 1; diff < d.G; diff++ {
			j := (i + diff) % d.G
			first[i*d.G+j] = len(order[i])
			for c := 0; c < d.linkCount(i, j); c++ {
				order[i] = append(order[i], linkRef{peer: j, copy: c})
			}
		}
		if len(order[i]) != d.A*d.H {
			panic(fmt.Sprintf("topology: dragonfly group %d wired %d endpoints, want %d", i, len(order[i]), d.A*d.H))
		}
	}
	// Match the c-th link of pair (i, j) on both sides.
	for i := 0; i < d.G; i++ {
		for e, ref := range order[i] {
			r, c := endpoint(i, e)
			pe := first[ref.peer*d.G+i] + ref.copy
			pr, pc := endpoint(ref.peer, pe)
			d.globalPeer[r][c] = Peer{Router: pr, Port: d.globalPort(pc), Terminal: -1}
			d.pair[i*d.G+ref.peer] = append(d.pair[i*d.G+ref.peer],
				dfLink{src: r, port: d.globalPort(c), dst: pr})
		}
	}
}

// Port layout: 0..A-2 local (complete graph), A-1..A-2+H global,
// A-1+H..A-2+H+P terminal.
func (d *Dragonfly) globalPort(c int) int   { return d.A - 1 + c }
func (d *Dragonfly) terminalPort(i int) int { return d.A - 1 + d.H + i }

// Name implements Topology.
func (d *Dragonfly) Name() string {
	return fmt.Sprintf("df-%d-%d-%d-%d", d.A, d.G, d.H, d.P)
}

// NumTerminals implements Topology.
func (d *Dragonfly) NumTerminals() int { return d.A * d.G * d.P }

// NumRouters implements Topology.
func (d *Dragonfly) NumRouters() int { return d.A * d.G }

// Radix implements Topology.
func (d *Dragonfly) Radix(RouterID) int { return d.A - 1 + d.H + d.P }

// Group returns the group index of router r.
func (d *Dragonfly) Group(r RouterID) int { return int(r) / d.A }

// RouterAt returns the i-th router of group g.
func (d *Dragonfly) RouterAt(g, i int) RouterID { return RouterID(g*d.A + i) }

// RouterLabel implements Topology.
func (d *Dragonfly) RouterLabel(r RouterID) string {
	return fmt.Sprintf("G%02d.R%02d", d.Group(r), int(r)%d.A)
}

// localPeer returns the router behind local port p of r (the complete
// graph skips self: port l reaches local index l, shifted past r's own).
func (d *Dragonfly) localPeer(r RouterID, p int) RouterID {
	m := int(r) % d.A
	peer := p
	if p >= m {
		peer = p + 1
	}
	return RouterID(d.Group(r)*d.A + peer)
}

// localPort returns the port on r that reaches group-mate peer.
func (d *Dragonfly) localPort(r, peer RouterID) int {
	m, n := int(r)%d.A, int(peer)%d.A
	if n < m {
		return n
	}
	return n - 1
}

// PortPeer implements Topology.
func (d *Dragonfly) PortPeer(r RouterID, p int) Peer {
	switch {
	case p < d.A-1:
		peer := d.localPeer(r, p)
		return Peer{Router: peer, Port: d.localPort(peer, r), Terminal: -1}
	case p < d.A-1+d.H:
		return d.globalPeer[r][p-(d.A-1)]
	case p < d.Radix(r):
		return Peer{Router: None, Terminal: NodeID(int(r)*d.P + (p - d.A + 1 - d.H))}
	}
	panic(fmt.Sprintf("topology: dragonfly port %d out of range", p))
}

// TerminalAttach implements Topology.
func (d *Dragonfly) TerminalAttach(t NodeID) (RouterID, int) {
	return RouterID(int(t) / d.P), d.terminalPort(int(t) % d.P)
}

// LinkDim implements Topology: every router-router channel is dimension 0
// and global channels are the dateline — crossing one moves the packet to
// the high virtual channel of its class, which is exactly the two-VC
// dragonfly deadlock-avoidance scheme.
func (d *Dragonfly) LinkDim(r RouterID, p int) (int, bool) {
	switch {
	case p < d.A-1:
		return 0, false
	case p < d.A-1+d.H:
		return 0, true
	}
	return -1, false
}

// links returns the global link list from group gi to group gj.
func (d *Dragonfly) links(gi, gj int) []dfLink {
	return d.pair[gi*d.G+gj]
}

// chooseLink deterministically selects the global link a route from group
// gi to group gj uses when heading for router target in gj: the lowest
// link landing directly on target if one exists (saving the exit-side
// local hop), otherwise a target-hashed pick that spreads destinations
// across the parallel links. The choice is a pure function of (gi, gj,
// target), so every router along the path recomputes the same link and
// deterministic routes cannot livelock.
func (d *Dragonfly) chooseLink(gi, gj int, target RouterID) dfLink {
	ls := d.links(gi, gj)
	for _, l := range ls {
		if l.dst == target {
			return l
		}
	}
	return ls[int(target)%len(ls)]
}

// Distance implements Topology: the minimal-routing distance, at most 3.
// This is the canonical dragonfly local-global-local metric — the length
// of the shortest route the router actually uses — not the raw BFS
// shortest path. The two differ when a double-global shortcut through an
// intermediate group exists; such routes need a third virtual channel to
// stay deadlock-free, so routing (and therefore the metric every minimal
// port strictly decreases) excludes them.
func (d *Dragonfly) Distance(a, b RouterID) int {
	if a == b {
		return 0
	}
	ga, gb := d.Group(a), d.Group(b)
	if ga == gb {
		return 1
	}
	best := 3
	for _, l := range d.links(ga, gb) {
		c := 1
		if l.src != a {
			c++
		}
		if l.dst != b {
			c++
		}
		if c < best {
			best = c
		}
	}
	return best
}

// NextHopToRouter implements Topology. Inter-group, a router prefers its
// own global links into the target group (lowest landing on target, then
// any) before falling back to a local hop toward the chooseLink gateway.
// Own links keep the route minimal — the walk is at most
// local-global-local and matches Distance — while routers with no own
// link all agree on the same gateway, so local forwarding cannot
// ping-pong: the gateway, being a link source itself, always takes the
// global hop next.
func (d *Dragonfly) NextHopToRouter(r, target RouterID) int {
	if r == target {
		panic("topology: NextHopToRouter with r == target")
	}
	gr, gt := d.Group(r), d.Group(target)
	if gr == gt {
		return d.localPort(r, target)
	}
	l, isOwn := d.routeLink(r, gr, gt, target)
	if isOwn {
		return l.port
	}
	return d.localPort(r, l.src)
}

// routeLink returns the global link the deterministic route from r (in
// group gr) toward target (in group gt) crosses, and whether r is its
// source. Own links with dst == target win, then any own link, then the
// shared chooseLink gateway pick.
func (d *Dragonfly) routeLink(r RouterID, gr, gt int, target RouterID) (dfLink, bool) {
	var own dfLink
	hasOwn := false
	for _, l := range d.links(gr, gt) {
		if l.src != r {
			continue
		}
		if l.dst == target {
			return l, true
		}
		if !hasOwn {
			own, hasOwn = l, true
		}
	}
	if hasOwn {
		return own, true
	}
	return d.chooseLink(gr, gt, target), false
}

// NextHop implements Topology.
func (d *Dragonfly) NextHop(r RouterID, dst NodeID) int {
	tr, tp := d.TerminalAttach(dst)
	if r == tr {
		return tp
	}
	return d.NextHopToRouter(r, tr)
}

// MinimalPorts implements Topology: every port whose far router is
// strictly closer to the destination's attach router. Minimal dragonfly
// paths are always (local?)(global)(local?) shaped, so the adaptive
// choice this enables stays inside the two-VC deadlock argument.
func (d *Dragonfly) MinimalPorts(r RouterID, dst NodeID, buf []int) []int {
	tr, tp := d.TerminalAttach(dst)
	if r == tr {
		return append(buf[:0], tp)
	}
	buf = buf[:0]
	cur := d.Distance(r, tr)
	for p := 0; p < d.A-1+d.H; p++ {
		peer := d.PortPeer(r, p)
		if peer.IsRouter() && d.Distance(peer.Router, tr) == cur-1 {
			buf = append(buf, p)
		}
	}
	return buf
}

// AlternativePaths implements Topology. For group-local flows the
// waypoints are the other routers of the group (one extra local hop each).
// For inter-group flows the candidates are (a) the parallel global links
// of the group pair, expressed as {gateway, entry} waypoint pairs, and
// (b) Valiant-style detours through a third group — the classic dragonfly
// load-balancing moves, which is exactly the path diversity DRB's
// multistep paths need here. Candidates are cost-ordered (Eq 3.2) with a
// source-rotated tie-break so neighbouring sources do not all open the
// same detour first.
//
// Candidates are collected in a scratch array on this call's stack — the
// topology is shared by every shard and holds no scratch of its own — and
// only the chosen paths are allocated: one slice of paths over one backing
// array, each path capped at its own length so that an append to it copies
// instead of overwriting its neighbour.
func (d *Dragonfly) AlternativePaths(src, dst NodeID, max int) []Path {
	sr, _ := d.TerminalAttach(src)
	dr, _ := d.TerminalAttach(dst)
	if sr == dr || max <= 0 {
		return nil
	}
	gs, gd := d.Group(sr), d.Group(dr)
	limit := 2*d.Distance(sr, dr) + 2
	var scratch [dfScratch]dfCand
	cands := scratch[:0]
	if gs == gd {
		for i := 0; i < d.A; i++ {
			w := d.RouterAt(gs, (i+int(src))%d.A)
			if w == sr || w == dr {
				continue
			}
			cands = d.addCand(cands, sr, dr, limit, dfCand{w: [2]RouterID{w}, n: 1, tie: i})
		}
	} else {
		ls := d.links(gs, gd)
		chosen, _ := d.routeLink(sr, gs, gd, dr)
		for i := range ls {
			l := ls[(i+int(src))%len(ls)]
			if l == chosen {
				continue
			}
			c := dfCand{w: [2]RouterID{l.src, l.dst}, n: 2, tie: i}
			if l.src == sr {
				c = dfCand{w: [2]RouterID{l.dst}, n: 1, tie: i}
			}
			cands = d.addCand(cands, sr, dr, limit, c)
		}
		for i := 0; i < d.G; i++ {
			gv := (gd + 1 + i + int(src)) % d.G
			if gv == gs || gv == gd {
				continue
			}
			vls := d.links(gs, gv)
			w := vls[int(src)%len(vls)].dst
			cands = d.addCand(cands, sr, dr, limit, dfCand{w: [2]RouterID{w}, n: 1, tie: len(ls) + i})
		}
	}
	slices.SortStableFunc(cands, func(x, y dfCand) int {
		if x.cost != y.cost {
			return x.cost - y.cost
		}
		return x.tie - y.tie
	})
	// The first max distinct candidates, compacted to the front in place.
	kept, waypoints := cands[:0], 0
	for _, c := range cands {
		if slices.ContainsFunc(kept, func(k dfCand) bool { return k.n == c.n && k.w == c.w }) {
			continue // a one-waypoint candidate leaves w[1] zero
		}
		kept = append(kept, c)
		waypoints += c.n
		if len(kept) >= max {
			break
		}
	}
	if len(kept) == 0 {
		return nil
	}
	out, backing := make([]Path, len(kept)), make([]RouterID, 0, waypoints)
	for i, c := range kept {
		at := len(backing)
		backing = append(backing, c.w[:c.n]...)
		out[i] = backing[at:len(backing):len(backing)]
	}
	return out
}

// dfScratch is how many candidates AlternativePaths collects on the stack:
// df-16-32-8-8 offers at most 5 parallel links and 30 third groups to a
// pair; a shape with more lets append move the slice to the heap.
const dfScratch = 64

// dfCand is an AlternativePaths candidate: the MSP through w[:n], its
// routed length and its position in the source-rotated enumeration.
type dfCand struct {
	w            [2]RouterID
	n, cost, tie int
}

// addCand appends c with its routed length (Eq 3.2: the per-segment
// distances of sr → c.w[:c.n] → dr) unless that exceeds limit.
func (d *Dragonfly) addCand(cands []dfCand, sr, dr RouterID, limit int, c dfCand) []dfCand {
	at := sr
	for _, w := range c.w[:c.n] {
		c.cost += d.Distance(at, w)
		at = w
	}
	if c.cost += d.Distance(at, dr); c.cost > limit {
		return cands
	}
	return append(cands, c)
}

var _ Topology = (*Dragonfly)(nil)
