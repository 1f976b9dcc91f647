package network

import (
	"fmt"

	"prdrb/internal/topology"
)

// Channel-dependency analysis (§3.3's deadlock argument, made checkable).
//
// A lossless network deadlocks iff the channel dependency graph — "holding
// buffer A, a packet may request buffer B" — has a cycle (Dally & Seitz).
// checkDeadlockFreedom rebuilds that graph for a topology under the
// multistep routing this library performs: for every source/destination
// pair it walks the direct path and every DRB alternative path (up to
// pathsPerPair), assigning each hop the virtual channel the runtime would
// use (MSP-segment class + dateline bit), and also walks the ACK return
// paths on the ACK class. It then verifies the union graph is acyclic.
//
// The test suite runs this over every supported topology, which is the
// formal backing for three design choices: per-segment escape channels
// (§3.2.8), the dedicated ACK class, and the dateline pairs on tori.

// channel identifies one (router, port, vc) buffer.
type channel struct {
	r  topology.RouterID
	p  int
	vc int
}

// depGraph is the channel dependency graph.
type depGraph struct {
	edges map[channel]map[channel]bool
}

func newDepGraph() *depGraph {
	return &depGraph{edges: make(map[channel]map[channel]bool)}
}

func (g *depGraph) add(from, to channel) {
	m := g.edges[from]
	if m == nil {
		m = make(map[channel]bool)
		g.edges[from] = m
	}
	m[to] = true
}

// cycle returns a cycle as a channel list, or nil when acyclic.
func (g *depGraph) cycle() []channel {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channel]int, len(g.edges))
	var stack []channel
	var found []channel

	var dfs func(c channel) bool
	dfs = func(c channel) bool {
		color[c] = gray
		stack = append(stack, c)
		for next := range g.edges[c] {
			switch color[next] {
			case white:
				if dfs(next) {
					return true
				}
			case gray:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					found = append(found, stack[i])
					if stack[i] == next {
						break
					}
				}
				return true
			}
		}
		color[c] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for c := range g.edges {
		if color[c] == white && dfs(c) {
			return found
		}
	}
	return nil
}

// vcState mirrors the runtime's prepareVC/deliver dateline tracking for
// the static walk.
type vcState struct {
	lastClass int
	curDim    int
	dateline  bool
}

func (st *vcState) vcAt(topo topology.Topology, r topology.RouterID, port, class, vcsPerClass int) int {
	if class != st.lastClass {
		st.lastClass = class
		st.dateline = false
		st.curDim = -99
	}
	dim, _ := topo.LinkDim(r, port)
	if dim != st.curDim {
		st.curDim = dim
		st.dateline = false
	}
	vc := class * vcsPerClass
	if st.dateline && vcsPerClass == 2 {
		vc++
	}
	return vc
}

func (st *vcState) afterHop(topo topology.Topology, r topology.RouterID, port int) {
	if _, wrap := topo.LinkDim(r, port); wrap {
		st.dateline = true
	}
}

// walkPath adds the channel dependencies of one routed journey: src
// terminal to dst terminal via the MSP waypoints (class = segment index),
// or the direct path when msp is nil. ackReturn walks dst->src on the ACK
// class instead.
func walkPath(g *depGraph, topo topology.Topology, src, dst topology.NodeID, msp topology.Path, class0 int, vcsPerClass int) error {
	r, _ := topo.TerminalAttach(src)
	st := vcState{lastClass: -1}
	idx := 0
	var prev *channel
	for hops := 0; ; hops++ {
		if hops > 8*(topo.NumRouters()+2) {
			return fmt.Errorf("network: walk %d->%d via %v did not terminate", src, dst, msp)
		}
		for idx < len(msp) && msp[idx] == r {
			idx++
		}
		// Segment index picks the escape class; ACK journeys use the
		// dedicated ACK class for their final segment only (detoured ACKs
		// ride the data classes until then — mirror of Packet.class).
		class := idx
		if class > maxWaypoints {
			class = maxWaypoints
		}
		if class0 == ackClass && idx >= len(msp) {
			class = ackClass
		}
		var port int
		if idx < len(msp) {
			port = topo.NextHopToRouter(r, msp[idx])
		} else {
			port = topo.NextHop(r, dst)
		}
		vc := st.vcAt(topo, r, port, class, vcsPerClass)
		cur := channel{r: r, p: port, vc: vc}
		if prev != nil {
			g.add(*prev, cur)
		}
		prev = &cur
		st.afterHop(topo, r, port)
		peer := topo.PortPeer(r, port)
		if peer.IsTerminal() {
			return nil
		}
		if peer.Unwired() {
			return fmt.Errorf("network: walk %d->%d hit unwired port", src, dst)
		}
		r = peer.Router
	}
}

// checkDeadlockFreedom verifies that deterministic baseline routing, every
// DRB alternative path (up to pathsPerPair per source/destination pair)
// and the ACK return traffic together produce an acyclic channel
// dependency graph on topo. vcsPerClass must match the runtime (2 when the
// topology has wrap links, else 1). It returns an error describing a cycle
// if one exists.
func checkDeadlockFreedom(topo topology.Topology, pathsPerPair int) error {
	vcsPerClass := 1
	for r := topology.RouterID(0); int(r) < topo.NumRouters(); r++ {
		for p := 0; p < topo.Radix(r); p++ {
			if _, wrap := topo.LinkDim(r, p); wrap {
				vcsPerClass = 2
			}
		}
	}
	g := newDepGraph()
	n := topo.NumTerminals()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := topology.NodeID(s), topology.NodeID(d)
			// Direct data path.
			if err := walkPath(g, topo, src, dst, nil, 0, vcsPerClass); err != nil {
				return err
			}
			// DRB alternatives.
			for _, msp := range topo.AlternativePaths(src, dst, pathsPerPair) {
				if err := walkPath(g, topo, src, dst, msp, 0, vcsPerClass); err != nil {
					return err
				}
			}
			// ACK return path (dst -> src, ACK class, direct route).
			if err := walkPath(g, topo, dst, src, nil, ackClass, vcsPerClass); err != nil {
				return err
			}
			// Fault-detoured ACK returns (NIC.sendAck under failures).
			for _, msp := range topo.AlternativePaths(dst, src, pathsPerPair) {
				if err := walkPath(g, topo, dst, src, msp, ackClass, vcsPerClass); err != nil {
					return err
				}
			}
		}
	}
	if cyc := g.cycle(); cyc != nil {
		return fmt.Errorf("network: channel dependency cycle (%d channels): %v", len(cyc), summarizeCycle(topo, cyc))
	}
	return nil
}

func summarizeCycle(topo topology.Topology, cyc []channel) string {
	s := ""
	for i, c := range cyc {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%s.p%d/vc%d", topo.RouterLabel(c.r), c.p, c.vc)
		if i >= 7 {
			s += " ..."
			break
		}
	}
	return s
}
