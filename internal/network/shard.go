package network

import (
	"fmt"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Sharded execution. A Shard owns every piece of per-run mutable state a
// slice of the fabric touches on its hot path — engine, packet freelist,
// counters, metric collector, tracer fork, health caches — so a window of
// conservative-parallel execution never shares a mutable cache line
// between shards. A serial network is simply a network with one shard:
// the same code paths run with the same state in the same order, which is
// what keeps -shards=1 byte-identical to the pre-sharding engine.
//
// Cross-shard traffic follows the conservative-lookahead protocol (see
// internal/sim/shards.go): a boundary port does not run a local deliver
// event — it forwards the packet through the shard group's rings with the
// same arrival timestamp the local event would have had (header cut-through
// + link/routing delay, which is at least the group lookahead by
// construction). Credits are pessimistic: every boundary transmission
// blocks its VC until the receiver returns the credit one window-width
// later — the physical credit-return wire made explicit. Data packets
// serialize for far longer than the credit round trip, so the pessimism
// costs no data throughput; the narrower ACK channel is mildly throttled,
// which is documented in DESIGN.md.

// Shard is the per-shard mutable state container.
type Shard struct {
	Idx int
	Eng *sim.Engine
	net *Network

	// Collector receives this shard's metric observations (router and
	// terminal indices are global; each shard only touches its own). May
	// be nil.
	Collector *metrics.Collector
	// Tracer is this shard's trace buffer (a fork of the run tracer in
	// sharded mode, the run tracer itself in serial mode). Nil disables.
	Tracer *telemetry.Tracer
	// Rec is this shard's flight recorder: bounded per-router rings of
	// cold-path events the congestion sampler dumps on anomaly triggers.
	// Nil disables (the default).
	Rec *telemetry.FlightRecorder

	// Packet freelist (see pool.go for the lifecycle invariants). IDs are
	// strided by the shard count so they stay globally unique and
	// shard-count-independent per shard: shard s issues s, s+N, s+2N, ...
	// With one shard the stride is 1 — the historical sequence. pktFree
	// heads the list and pktFreeN counts it.
	pktFree     *Packet
	pktFreeN    int
	pktFreePeak int
	pktIssued   uint64
	pktReleased uint64
	nextPktID   uint64
	nextMsgID   uint64
	idStride    uint64

	// Counters (aggregated across shards by the Network accessors).
	predictiveAcksSent    int64
	predictiveAcksDropped int64
	droppedPkts           int64
	unreachableMsgs       int64
	creditsStalled        int64
	detouredAcks          int64
	// events counts, by kind, the events this shard's ports put on an
	// engine for reasons other than moving a packet one hop (EventKinds).
	events EventKinds

	// flowRank, flowKept and flowTop are the Contending Flows Detection
	// scratch (a shallow port's recount, the flows kept, the result of
	// outPort.topContendingFlows): one per shard, since a shard's ports
	// never run concurrently. tallyFree holds the emptied flow tallies of
	// ports that are no longer congested (outPort.dropTally).
	flowRank  []flowBytes
	flowKept  []flowBytes
	flowTop   []FlowKey
	tallyFree []*flowTally

	// routerObs[r] is the pre-resolved contention-metrics handle of router
	// r's stats, filled for this shard's routers when a collector is
	// attached and nil otherwise, so the hot path never indexes through the
	// collector.
	routerObs []metrics.RouterObserver

	// Health caches (health.go), valid until the next fault epoch. Kept
	// per shard because they are written on the hot path; the underlying
	// link state they derive from only changes at window barriers.
	reachEpoch     uint64
	reachSets      map[topology.RouterID][]bool
	ackDetourEpoch uint64
	ackDetours     map[flowPair]topology.Path

	// reasm tallies the fragments of every multi-fragment message the
	// shard's NICs are reassembling, by MsgID (unique across shards); made
	// by the first one.
	reasm map[uint64]fragTally
}

// fragTally is a message's fragments and bytes arrived so far.
type fragTally struct{ got, bytes int }

// remoteLink is the peer of a boundary output port: the far end of the
// link lives on another shard, so pump hands deliveries to the cross-shard
// protocol (sendRemote) instead of a local deliver event.
type remoteLink struct {
	shard  int     // destination shard index
	target *Router // receiving router (terminal links never cross shards)
}

// accept implements receiver for the type only: pump never delivers to a
// remoteLink locally.
func (*remoteLink) accept(*sim.Engine, *Packet, *outPort, int) bool {
	panic("network: local delivery on a boundary link")
}

// Cross-shard event kinds dispatched through sim.RemoteReceiver.
const (
	// remoteDeliver hands a packet across a boundary link. Arg is the
	// sending VC, Ptr the *Packet, Aux the sending *outPort.
	remoteDeliver uint8 = iota
	// remoteLoss notifies a source NIC that one of its packets died on a
	// failed link in another shard. Ptr is the *Packet (ownership
	// transfers; the receiving shard releases it).
	remoteLoss
)

// sendCredit returns a boundary VC credit to the sending port, one
// lookahead later — the credit-return wire latency of the conservative
// protocol.
func (sh *Shard) sendCredit(e *sim.Engine, to *outPort, vc int) {
	sh.events.RemoteCredits++
	sh.net.group.Send(sh.Idx, to.sh.Idx, sim.RemoteEvent{
		At:     e.Now() + sh.net.group.Window,
		Target: to,
		Kind:   portEvCredit,
		Arg:    uint64(vc),
	})
}

// HandleRemote implements sim.RemoteReceiver for boundary packet arrival.
func (r *Router) HandleRemote(e *sim.Engine, kind uint8, arg uint64, ptr, aux any) {
	switch kind {
	case remoteDeliver:
		pkt := ptr.(*Packet)
		from := aux.(*outPort)
		if from.isDown() {
			// The link died while the packet was in flight: lost, exactly
			// as the local deliver path would have decided. The credit
			// still returns so the VC is usable after repair.
			r.net.dropPacketAt(e, r.sh, pkt, int(from.router))
			r.sh.sendCredit(e, from, int(arg))
			return
		}
		if from.link&linkWrap != 0 {
			pkt.dateline = true
		}
		if r.accept(e, pkt, from, int(arg)) {
			// Admitted immediately: the pessimistic credit comes back now.
			// On refusal the packet parked and admitParked returns it later.
			r.sh.sendCredit(e, from, int(arg))
		}
	default:
		panic(fmt.Sprintf("network: router got unknown remote kind %d", kind))
	}
}

// HandleRemote implements sim.RemoteReceiver for cross-shard loss
// notification delivered at the source NIC's shard.
func (n *NIC) HandleRemote(e *sim.Engine, kind uint8, _ uint64, ptr, _ any) {
	if kind != remoteLoss {
		panic(fmt.Sprintf("network: NIC got unknown remote kind %d", kind))
	}
	pkt := ptr.(*Packet)
	if fa, ok := n.Source.(FailureAware); ok {
		fa.HandlePacketLoss(e, pkt)
	}
	n.sh.releasePacket(pkt)
}

// Sharded reports whether the network runs under a shard group.
func (n *Network) Sharded() bool { return n.group != nil }

// Group returns the shard group driving this network (nil in serial mode).
func (n *Network) Group() *sim.ShardGroup { return n.group }

// EngineForNode returns the engine that owns terminal node's state; in
// serial mode this is the network engine. Anything scheduling work on
// behalf of a node (traffic sources, controllers) must use it.
func (n *Network) EngineForNode(node topology.NodeID) *sim.Engine {
	return n.NICs[node].sh.Eng
}

// TracerForNode returns the tracer a node's components must emit into.
func (n *Network) TracerForNode(node topology.NodeID) *telemetry.Tracer {
	return n.NICs[node].sh.Tracer
}

// CollectorForNode returns the collector a node's components must record
// into.
func (n *Network) CollectorForNode(node topology.NodeID) *metrics.Collector {
	return n.NICs[node].sh.Collector
}

// ShardTracers returns the per-shard tracer forks in shard order (for the
// runner's end-of-run absorb). Entries may be nil when tracing is off.
func (n *Network) ShardTracers() []*telemetry.Tracer {
	out := make([]*telemetry.Tracer, len(n.Shards))
	for i, sh := range n.Shards {
		out[i] = sh.Tracer
	}
	return out
}

// ShardCollectors returns the per-shard collectors in shard order.
func (n *Network) ShardCollectors() []*metrics.Collector {
	out := make([]*metrics.Collector, len(n.Shards))
	for i, sh := range n.Shards {
		out[i] = sh.Collector
	}
	return out
}

// ScheduleControl schedules fabric-control work (fault transitions). In
// serial mode it is an ordinary engine event at exactly `at`; in sharded
// mode it runs as a group barrier task at the last barrier before the
// window containing `at` (at most one lookahead early), where mutating
// link state shared by all shards is race-free.
//
// The shard group starts a window at the earliest pending event, and a
// barrier task sees the clocks at that start — so while one is pending,
// which events exist decides when a repaired link resumes. For that span
// every link-free event is scheduled (scheduleFree), the ones reserved so
// far included.
func (n *Network) ScheduleControl(at sim.Time, fn func()) {
	if n.group == nil {
		n.Eng.Schedule(at, func(*sim.Engine) { fn() })
		return
	}
	if n.controlPending == 0 {
		n.eachPort(func(o *outPort) {
			if o.linkBusy(o.sh.Eng) {
				o.materialiseFree(o.sh.Eng)
			}
		})
	}
	n.controlPending++
	n.group.ScheduleBarrier(at, func() {
		fn()
		n.controlPending--
	})
}

// EventKinds attributes a shard's scheduled events. Moving a packet one hop
// costs one event whatever the engine: a deliver event on a local link, a
// mailbox delivery (Handoffs) on a boundary link. What differs between a
// serial and a sharded run of the same traffic is the flow-control and
// link bookkeeping around it, which these counters single out; the rest of
// Engine.Processed is hops, injections and timers.
type EventKinds struct {
	// Handoffs counts packets sent over a boundary link, each delivered by
	// one mailbox event on the receiving shard.
	Handoffs uint64
	// RemoteCredits counts the credit returns of the pessimistic boundary
	// protocol: one per hand-off, also when the receiver had room — a local
	// link returns no credit at all in that case.
	RemoteCredits uint64
	// LocalCredits counts credit events on local links: one per delivery
	// that found the downstream VC full and parked.
	LocalCredits uint64
	// LinkFree counts link-free events that were actually scheduled
	// (outPort.scheduleFree).
	LinkFree uint64
}

// EventKinds returns every shard's event attribution, in shard order.
// Quiescent-only, like the other counters.
func (n *Network) EventKinds() []EventKinds {
	out := make([]EventKinds, len(n.Shards))
	for i, sh := range n.Shards {
		out[i] = sh.events
	}
	return out
}

// Aggregate counter accessors. Each sums the per-shard counters; with one
// shard they read the historical fields.

// PredictiveAcksSent counts router-originated notifications (GPA).
func (n *Network) PredictiveAcksSent() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.predictiveAcksSent })
}

// PredictiveAcksDropped counts notifications skipped for lack of buffer
// space.
func (n *Network) PredictiveAcksDropped() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.predictiveAcksDropped })
}

// DroppedPkts counts packets lost on failed links (see health.go).
func (n *Network) DroppedPkts() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.droppedPkts })
}

// UnreachableMsgs counts messages refused at injection because no healthy
// route existed.
func (n *Network) UnreachableMsgs() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.unreachableMsgs })
}

// CreditsStalled counts deliveries refused by a full downstream buffer —
// each one parks a packet in the input latch and blocks its VC until the
// credit returns (the backpressure events of §2.1.3).
func (n *Network) CreditsStalled() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.creditsStalled })
}

// DetouredAcks counts notifications rerouted around failed links via
// ackDetour.
func (n *Network) DetouredAcks() int64 {
	return n.sumCounter(func(sh *Shard) int64 { return sh.detouredAcks })
}

func (n *Network) sumCounter(get func(*Shard) int64) int64 {
	var total int64
	for _, sh := range n.Shards {
		total += get(sh)
	}
	return total
}
