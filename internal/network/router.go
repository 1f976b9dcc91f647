package network

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// RouterPolicy decides output ports inside every router — the paper's
// routing unit (Fig 4.6). The packet's multistep header has already been
// advanced by the HDP module when OutputPort is called, so policies that
// honour waypoints can steer toward pkt.CurrentTarget().
type RouterPolicy interface {
	// Name is the policy identifier used in reports.
	Name() string
	// OutputPort returns the output port index at router r for pkt.
	OutputPort(r *Router, pkt *Packet) int
}

// Router is the switch model of §4.1.2: routing unit + arbitration +
// crossbar, with output-buffered ports and the PR-DRB monitoring modules
// (LU, HDP, CFD, GPA of §3.3.2) attached at the ports.
type Router struct {
	ID  topology.RouterID
	net *Network
	sh  *Shard    // owning shard; all of this router's events run on its engine
	out []outPort // a window of the shard's port slab
	// mpBuf is this router's private MinimalPorts scratch (cap = radix).
	// Routing decisions for a router always run on its shard's engine, so
	// per-router scratch is race-free under parallel shards while keeping
	// the per-decision call allocation-free.
	mpBuf []int

	// Route memo. The topology's NextHop and MinimalPorts are pure, and at
	// any router other than the destination's own they depend on the
	// destination only through its attach router (the Topology contract),
	// so one entry per destination router answers for all its terminals;
	// at the attach router itself the answer is the terminal's port, read
	// from Network.attach. Rows are indexed by destination router, made on
	// the router's first decision (a router that never routes, or a policy
	// that never asks for port sets, pays nothing) and filled on first
	// visit. Like mpBuf they are touched only from the owning shard.
	//
	// nextHop[d] is the baseline port toward router d, plus one (0 =
	// unknown).
	nextHop []int16
	// minPorts[d] indexes portSets, plus one (0 = unknown); portSets are
	// the distinct minimal-port sets seen at this router, shared by every
	// destination with the same answer.
	minPorts []int16
	portSets [][]int
}

// attachPoint is one terminal's attach router and port.
type attachPoint struct {
	router int32
	port   int16
}

// Net returns the owning network (topology, config and RNG access for
// policies).
func (r *Router) Net() *Network { return r.net }

// NextHop returns the topology's baseline deterministic output port at r
// toward terminal dst, memoised.
func (r *Router) NextHop(dst topology.NodeID) int {
	at := r.net.attach[dst]
	if topology.RouterID(at.router) == r.ID {
		return int(at.port)
	}
	if r.nextHop == nil {
		r.nextHop = make([]int16, len(r.net.Routers))
	}
	p := r.nextHop[at.router]
	if p == 0 {
		p = int16(r.net.Topo.NextHop(r.ID, dst)) + 1
		r.nextHop[at.router] = p
	}
	return int(p) - 1
}

// MinimalPorts returns the minimal output ports at r toward dst, memoised.
// The result must not be mutated and, for a terminal of r itself, is valid
// only until this router's next MinimalPorts call.
func (r *Router) MinimalPorts(dst topology.NodeID) []int {
	at := r.net.attach[dst]
	if topology.RouterID(at.router) == r.ID {
		return append(r.mpBuf[:0], int(at.port))
	}
	if r.minPorts == nil {
		r.minPorts = make([]int16, len(r.net.Routers))
	}
	i := r.minPorts[at.router]
	if i == 0 {
		i = r.internPorts(r.net.Topo.MinimalPorts(r.ID, dst, r.mpBuf))
		r.minPorts[at.router] = i
	}
	return r.portSets[i-1]
}

// internPorts returns the 1-based index of ports among this router's
// distinct minimal-port sets, adding a copy when it is new.
func (r *Router) internPorts(ports []int) int16 {
next:
	for i, set := range r.portSets {
		if len(set) != len(ports) {
			continue
		}
		for j := range set {
			if set[j] != ports[j] {
				continue next
			}
		}
		return int16(i + 1)
	}
	r.portSets = append(r.portSets, append([]int(nil), ports...))
	return int16(len(r.portSets))
}

// OutLoad returns the queued bytes at output port p — the congestion signal
// adaptive policies compare (§2.1.4 "adaptive algorithms take into account
// the status of the network").
func (r *Router) OutLoad(p int) int { return r.out[p].load() }

// accept implements receiver: HDP header advance, routing decision, then
// admission into the chosen output buffer or parking with backpressure.
func (r *Router) accept(e *sim.Engine, pkt *Packet, from *outPort, fromVC int) bool {
	pkt.advanceHeader(r.ID)
	port := r.net.Policy.OutputPort(r, pkt)
	if port < 0 || port >= len(r.out) || r.out[port].peer == nil {
		panic(fmt.Sprintf("network: policy %q chose invalid port %d at router %d for %v",
			r.net.Policy.Name(), port, r.ID, pkt.Flow()))
	}
	op := &r.out[port]
	vc := r.net.prepareVC(op, pkt)
	if op.fits(vc, pkt.SizeBytes) {
		op.enqueue(e, pkt, vc)
		return true
	}
	op.park(parkedDelivery{pkt: pkt, from: from, fromVC: fromVC}, vc)
	return false
}

// injectAck implements the GPA module (§3.3.2): the router originates a
// predictive ACK and pushes it toward its destination through this router's
// own ports. If the chosen port's ACK channel is full the notification is
// dropped (it is advisory; a retransmission would only add load to an
// already congested region).
func (r *Router) injectAck(e *sim.Engine, ack *Packet) bool {
	port := r.net.Policy.OutputPort(r, ack)
	if port < 0 || port >= len(r.out) || r.out[port].peer == nil {
		return false
	}
	op := &r.out[port]
	vc := r.net.prepareVC(op, ack)
	if !op.fits(vc, ack.SizeBytes) {
		return false
	}
	op.enqueue(e, ack, vc)
	return true
}
