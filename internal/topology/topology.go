// Package topology models the interconnection-network topologies of the
// paper (thesis §2.1): 2-D meshes and tori (direct networks, §2.1.1) and
// k-ary n-trees (the fat-tree variant of §2.1.5). It provides the physical
// wiring (routers, ports, terminal attachment), baseline minimal routing,
// and the enumeration of DRB alternative multistep paths (MSPs, §3.2.3)
// expressed as router waypoints.
package topology

import "fmt"

// NodeID identifies a terminal (processing) node, 0..NumTerminals-1.
// The paper reserves the term "node" for terminals (§3.1).
type NodeID int

// RouterID identifies a switch/router, 0..NumRouters-1.
type RouterID int

// None marks an absent router (e.g. an unwired mesh edge port).
const None RouterID = -1

// Peer describes what sits on the far side of a router port.
type Peer struct {
	// Router and Port are set when the port is wired to another router.
	Router RouterID
	Port   int
	// Terminal is >= 0 when the port is wired to a processing node.
	Terminal NodeID
}

// IsRouter reports whether the peer is another router.
func (p Peer) IsRouter() bool { return p.Terminal < 0 }

// IsTerminal reports whether the peer is a processing node.
func (p Peer) IsTerminal() bool { return p.Terminal >= 0 }

// Unwired reports whether the port has no peer at all.
func (p Peer) Unwired() bool { return p.Terminal < 0 && p.Router == None }

// Path is a DRB multistep path (MSP, Eq 3.1): the ordered router waypoints
// ("intermediate nodes") a packet must traverse before finally routing to
// its destination terminal. An empty Path is the direct (original) path.
type Path []RouterID

// Equal reports waypoint-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the waypoint list.
func (p Path) String() string {
	if len(p) == 0 {
		return "direct"
	}
	return fmt.Sprintf("via%v", []RouterID(p))
}

// Topology is the structural and routing contract shared by all network
// shapes. All routing methods are minimal *per segment*: a full MSP may be
// non-minimal end to end (Eq 3.2) but each hop makes progress toward the
// current target, which is what guarantees livelock freedom (§3.3).
type Topology interface {
	// Name is a short identifier, e.g. "mesh8x8" or "ft-4ary3tree".
	Name() string
	// NumTerminals is the number of processing nodes.
	NumTerminals() int
	// NumRouters is the number of switches.
	NumRouters() int
	// Radix is the number of ports on router r (terminal ports included).
	Radix(r RouterID) int
	// PortPeer describes the device wired to port p of router r.
	PortPeer(r RouterID, p int) Peer
	// TerminalAttach returns the router and port where terminal t attaches.
	TerminalAttach(t NodeID) (RouterID, int)
	// NextHop returns the output port at r for the topology's baseline
	// deterministic minimal routing toward terminal dst.
	//
	// NextHop and MinimalPorts are pure functions of their arguments. At
	// dst's attach router the answer is dst's attach port; at any other
	// router it depends on dst only through its attach router. The
	// network memoises routes per destination router on the strength of
	// this (network.Router.NextHop, TestRouteMemoMatchesTopology).
	NextHop(r RouterID, dst NodeID) int
	// MinimalPorts returns every output port at r that lies on a minimal
	// continuation toward dst. Adaptive policies choose among these.
	// The answer is appended into buf[:0] (pass a reused caller-owned
	// buffer to keep the per-routing-decision call allocation-free), or
	// may alias topology-owned immutable storage; either way it is only
	// valid until the next call with the same buffer and must not be
	// mutated. Topologies write no internal scratch here, so concurrent
	// callers with distinct buffers are safe — the sharded engine routes
	// in parallel through one shared Topology value.
	MinimalPorts(r RouterID, dst NodeID, buf []int) []int
	// NextHopToRouter returns the output port at r on the deterministic
	// minimal route toward waypoint router target. r == target is invalid.
	NextHopToRouter(r, target RouterID) int
	// AlternativePaths returns up to max candidate MSPs between terminals
	// src and dst, ordered by expansion level (shortest detours first).
	// The direct path is NOT included; index 0 is the first alternative.
	AlternativePaths(src, dst NodeID, max int) []Path
	// Distance is the minimal hop count between two routers.
	Distance(a, b RouterID) int
	// RouterLabel is a human-readable router name for latency maps,
	// e.g. "(3,1)" for a mesh or "L2.S05" for a tree.
	RouterLabel(r RouterID) string
	// LinkDim classifies router port p for virtual-channel assignment:
	// dim is the routing dimension the link belongs to (-1 for terminal
	// links), and wrap is true when the link closes a ring (a torus
	// wraparound edge). Wrap links require dateline virtual channels to
	// stay deadlock-free; meshes and trees have none.
	LinkDim(r RouterID, p int) (dim int, wrap bool)
}

// PathLength returns the routed length (in router-to-router hops) of an MSP
// between the attach routers of src and dst, per Eq 3.2: the sum of the
// per-segment minimal distances.
func PathLength(t Topology, src, dst NodeID, p Path) int {
	cur, _ := t.TerminalAttach(src)
	end, _ := t.TerminalAttach(dst)
	total := 0
	for _, wp := range p {
		total += t.Distance(cur, wp)
		cur = wp
	}
	return total + t.Distance(cur, end)
}

// Validate walks every port of every router and checks that the wiring is
// symmetric (if a.port -> b then b's peer port points back at a) and that
// every terminal attaches exactly once. It returns an error describing the
// first inconsistency. All topology constructors are checked by it in tests.
func Validate(t Topology) error {
	seen := make(map[NodeID]int)
	for r := RouterID(0); int(r) < t.NumRouters(); r++ {
		for p := 0; p < t.Radix(r); p++ {
			peer := t.PortPeer(r, p)
			switch {
			case peer.Unwired():
				continue
			case peer.IsTerminal():
				seen[peer.Terminal]++
				ar, ap := t.TerminalAttach(peer.Terminal)
				if ar != r || ap != p {
					return fmt.Errorf("terminal %d attach mismatch: port says r%d.p%d, attach says r%d.p%d",
						peer.Terminal, r, p, ar, ap)
				}
			default:
				back := t.PortPeer(peer.Router, peer.Port)
				if !back.IsRouter() || back.Router != r || back.Port != p {
					return fmt.Errorf("asymmetric link r%d.p%d -> r%d.p%d", r, p, peer.Router, peer.Port)
				}
			}
		}
	}
	for n := 0; n < t.NumTerminals(); n++ {
		if seen[NodeID(n)] != 1 {
			return fmt.Errorf("terminal %d attached %d times", n, seen[NodeID(n)])
		}
	}
	return nil
}
