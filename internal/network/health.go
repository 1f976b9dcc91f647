package network

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Link-health state and fault application (the runtime half of
// internal/faults). The paper evaluates PR-DRB only under traffic
// perturbation; this layer lets the same machinery face topology
// perturbation: links and switches go down, degrade, and come back, and
// the routing stack observes it.
//
// Semantics of a down link:
//   - its output queue stops being served (pump refuses to start),
//   - it emits no credits (parked upstream deliveries stay parked),
//   - the packet in flight on it when it died is dropped and counted.
//
// Buffered packets are NOT discarded: they resume service after repair,
// exactly like a real lossless fabric whose queues survive a link reset.

// FailureAware is an optional SourceController extension: controllers that
// implement it are told when a packet of theirs was lost on a failed link.
// The notification models the transport's loss detection with the timeout
// collapsed to zero, which keeps runs deterministic and comparable across
// policies (the FR-DRB watchdog provides the timeout-based variant).
type FailureAware interface {
	HandlePacketLoss(e *sim.Engine, pkt *Packet)
}

// faultsActive reports whether any fault was ever applied; the zero state
// keeps every health check on the fast path for fault-free runs.
func (n *Network) faultsActive() bool { return n.faultEpoch > 0 }

// FaultEpoch increments on every link up/down transition; cached
// reachability is invalidated by comparing against it.
func (n *Network) FaultEpoch() uint64 { return n.faultEpoch }

// portAt resolves the outPort behind (r, p). A terminal peer's reverse
// direction is the NIC injection port.
func (n *Network) portAt(r topology.RouterID, p int) (*outPort, error) {
	if int(r) < 0 || int(r) >= len(n.Routers) {
		return nil, fmt.Errorf("network: fault on unknown router %d", r)
	}
	rt := n.Routers[r]
	if p < 0 || p >= len(rt.out) {
		return nil, fmt.Errorf("network: fault on router %d unknown port %d", r, p)
	}
	return &rt.out[p], nil
}

// reversePort returns the opposite direction of the link at (r, p): the
// peer router's back-port, or the attached NIC's injection port. Nil for an
// unwired port.
func (n *Network) reversePort(r topology.RouterID, p int) *outPort {
	peer := n.Topo.PortPeer(r, p)
	switch {
	case peer.IsTerminal():
		return n.NICs[peer.Terminal].out
	case peer.Unwired():
		return nil
	case peer.IsRouter():
		return &n.Routers[peer.Router].out[peer.Port]
	}
	return nil
}

// setLinkDown flips both directions of the link at (r, p). The two port
// ends may live on different shards: each side's pump and tracer emission
// run on that side's own engine. In sharded mode this only ever executes
// inside a barrier task, when every engine sits at the same window start,
// so both emissions carry the same timestamp and no shard is mid-window.
func (n *Network) setLinkDown(r topology.RouterID, p int, down bool) error {
	op, err := n.portAt(r, p)
	if err != nil {
		return err
	}
	rev := n.reversePort(r, p)
	if rev == nil {
		return fmt.Errorf("network: fault on unwired port r%d.p%d", r, p)
	}
	n.faultEpoch++
	op.setLink(linkDown, down)
	rev.setLink(linkDown, down)
	kind := telemetry.KindLinkUp
	if down {
		kind = telemetry.KindLinkDown
	}
	op.sh.Tracer.RouterEvent(op.sh.Eng.Now(), kind, int(r), p, 0)
	if op.sh.Rec != nil {
		fk := telemetry.FlightLinkUp
		if down {
			fk = telemetry.FlightLinkDown
		}
		op.sh.Rec.Record(telemetry.FlightEvent{
			AtNs: int64(op.sh.Eng.Now()), Kind: fk, Router: int(r), Port: p, VC: -1,
		})
	}
	if !down {
		// Repair: buffered packets resume service immediately.
		op.pump(op.sh.Eng)
		rev.pump(rev.sh.Eng)
	}
	return nil
}

// FailLink takes the link at router r, port p out of service in both
// directions. Idempotent. Fault transitions run on the ports' own engines.
func (n *Network) FailLink(r topology.RouterID, p int) error {
	return n.setLinkDown(r, p, true)
}

// RestoreLink returns a failed link to service in both directions.
func (n *Network) RestoreLink(r topology.RouterID, p int) error {
	return n.setLinkDown(r, p, false)
}

// DegradeLink scales the link's bandwidth in both directions to factor
// (0 < factor <= 1) of nominal; factor 1 restores full rate. A degraded
// link still serves its queue — slower — so it stays routable.
func (n *Network) DegradeLink(r topology.RouterID, p int, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("network: degrade factor %v outside (0,1]", factor)
	}
	op, err := n.portAt(r, p)
	if err != nil {
		return err
	}
	rev := n.reversePort(r, p)
	if rev == nil {
		return fmt.Errorf("network: degrade on unwired port r%d.p%d", r, p)
	}
	op.coldState().rate = factor
	rev.coldState().rate = factor
	op.sh.Tracer.RouterEvent(op.sh.Eng.Now(), telemetry.KindLinkDegrade, int(r), p, int64(factor*1000))
	if op.sh.Rec != nil {
		op.sh.Rec.Record(telemetry.FlightEvent{
			AtNs: int64(op.sh.Eng.Now()), Kind: telemetry.FlightLinkDegrade,
			Router: int(r), Port: p, VC: -1, Val: int64(factor * 1000),
		})
	}
	return nil
}

// FailRouter fails every link incident to router r (its switch died):
// inter-router links in both directions and the terminal links of attached
// NICs, which can then neither inject nor receive.
func (n *Network) FailRouter(r topology.RouterID) error {
	return n.eachWiredPort(r, func(p int) error { return n.FailLink(r, p) })
}

// RestoreRouter restores every link incident to router r.
func (n *Network) RestoreRouter(r topology.RouterID) error {
	return n.eachWiredPort(r, func(p int) error { return n.RestoreLink(r, p) })
}

func (n *Network) eachWiredPort(r topology.RouterID, f func(p int) error) error {
	if int(r) < 0 || int(r) >= len(n.Routers) {
		return fmt.Errorf("network: fault on unknown router %d", r)
	}
	for p := range n.Routers[r].out {
		if n.Topo.PortPeer(r, p).Unwired() {
			continue
		}
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// PortUp reports whether the router's output port p has a live link — the
// link-health predicate adaptive routing policies consult.
func (r *Router) PortUp(p int) bool { return !r.out[p].isDown() }

// dropPacketAt accounts a packet lost on a dead link at router (observed
// by shard sh) and notifies the affected source controller (for a lost
// ACK the affected source is the ACK's destination — the node waiting for
// it). When the source lives on another shard the notification crosses
// the boundary as a remoteLoss event carrying the packet; the receiving
// shard becomes the final owner and releases the record into its own
// pool.
func (n *Network) dropPacketAt(e *sim.Engine, sh *Shard, pkt *Packet, router int) {
	sh.droppedPkts++
	if sh.Collector != nil {
		sh.Collector.PacketDropped(pkt.SizeBytes)
	}
	if sh.Tracer.Sampled(pkt.ID) {
		sh.Tracer.PacketDropped(e.Now(), pkt.ID, int(pkt.Src), int(pkt.Dst), router)
	}
	if sh.Rec != nil {
		sh.Rec.Record(telemetry.FlightEvent{
			AtNs: int64(e.Now()), Kind: telemetry.FlightDrop,
			Router: router, Port: -1, VC: -1,
			Pkt: pkt.ID, Src: int(pkt.Src), Dst: int(pkt.Dst),
		})
	}
	node := pkt.Src
	if pkt.Type == AckPacket {
		node = pkt.Dst
	}
	if int(node) >= 0 && int(node) < len(n.NICs) {
		nic := n.NICs[node]
		if nic.sh == sh {
			if fa, ok := nic.Source.(FailureAware); ok {
				fa.HandlePacketLoss(e, pkt)
			}
		} else if _, ok := nic.Source.(FailureAware); ok {
			n.group.Send(sh.Idx, nic.sh.Idx, sim.RemoteEvent{
				At:     e.Now() + n.group.Window,
				Target: nic,
				Kind:   remoteLoss,
				Ptr:    pkt,
			})
			return
		}
	}
	// The drop path is a final owner too: the record returns to the pool
	// once the loss notification has been delivered.
	sh.releasePacket(pkt)
}

// ackDetour returns multistep waypoints for notification traffic from src
// to dst when the direct return route is dead: the first usable candidate
// in the topology's stable alternative-path order (deterministic — no RNG
// involved). Nil when the direct route works or no detour survives; in the
// latter case the ACK parks at the dead port like any other packet and
// arrives after repair. Results are cached until the next fault
// transition.
func (n *Network) ackDetour(src, dst topology.NodeID) topology.Path {
	if !n.faultsActive() || n.PathUsable(src, dst, nil) {
		return nil
	}
	// The cache lives on the source node's shard: only that shard ever
	// queries this pair, and the link state it derives from is stable
	// between barriers.
	sh := n.NICs[src].sh
	if sh.ackDetourEpoch != n.faultEpoch {
		sh.ackDetourEpoch = n.faultEpoch
		sh.ackDetours = make(map[flowPair]topology.Path)
	}
	key := flowPair{src, dst}
	if msp, ok := sh.ackDetours[key]; ok {
		return msp
	}
	var detour topology.Path
	for _, msp := range n.Topo.AlternativePaths(src, dst, 8) {
		if n.PathUsable(src, dst, msp) {
			detour = msp
			break
		}
	}
	sh.ackDetours[key] = detour
	return detour
}

// PathUsable reports whether the multistep path msp (nil = direct) from
// src to dst currently traverses only live links, walking the same
// deterministic per-segment route the fabric would use. It is the
// feasibility predicate DRB path generation filters candidates through.
func (n *Network) PathUsable(src, dst topology.NodeID, msp topology.Path) bool {
	if !n.faultsActive() {
		return true
	}
	if n.NICs[src].out.isDown() {
		return false
	}
	r, _ := n.Topo.TerminalAttach(src)
	idx := 0
	for hops := 0; hops <= 8*(n.Topo.NumRouters()+2); hops++ {
		for idx < len(msp) && msp[idx] == r {
			idx++
		}
		var port int
		if idx < len(msp) {
			port = n.Topo.NextHopToRouter(r, msp[idx])
		} else {
			port = n.Topo.NextHop(r, dst)
		}
		if n.Routers[r].out[port].isDown() {
			return false
		}
		peer := n.Topo.PortPeer(r, port)
		switch {
		case peer.IsTerminal():
			return peer.Terminal == dst
		case peer.Unwired():
			return false
		}
		r = peer.Router
	}
	return false
}

// Reachable reports whether any live route exists from src to dst,
// regardless of routing policy: a breadth-first search over up links.
// Results are cached per source router and invalidated on every fault
// transition.
func (n *Network) Reachable(src, dst topology.NodeID) bool {
	if !n.faultsActive() {
		return true
	}
	if n.NICs[src].out.isDown() {
		return false
	}
	dr, dp := n.Topo.TerminalAttach(dst)
	if n.Routers[dr].out[dp].isDown() {
		return false
	}
	sr, _ := n.Topo.TerminalAttach(src)
	return n.reachFrom(n.NICs[src].sh, sr)[dr]
}

// reachFrom returns the live-reachability set of router from, cached on
// the querying shard until the next fault transition. The BFS reads
// foreign shards' port state, which is safe: link health only changes in
// barrier tasks, never mid-window.
func (n *Network) reachFrom(sh *Shard, from topology.RouterID) []bool {
	if sh.reachEpoch != n.faultEpoch {
		sh.reachEpoch = n.faultEpoch
		sh.reachSets = make(map[topology.RouterID][]bool)
	}
	if set, ok := sh.reachSets[from]; ok {
		return set
	}
	set := make([]bool, len(n.Routers))
	set[from] = true
	queue := []topology.RouterID{from}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		out := n.Routers[r].out
		for p := range out {
			if out[p].isDown() {
				continue
			}
			peer := n.Topo.PortPeer(r, p)
			if peer.IsRouter() && !peer.Unwired() && !set[peer.Router] {
				set[peer.Router] = true
				queue = append(queue, peer.Router)
			}
		}
	}
	sh.reachSets[from] = set
	return set
}
