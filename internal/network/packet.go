// Package network models the physical network substrate of the paper's
// evaluation (thesis §4.1): InfiniBand-style routers with output buffering
// and virtual cut-through switching, credit/backpressure flow control,
// round-robin arbitration, terminal NICs with source/sink state machines,
// and the PR-DRB packet formats (§3.3.1). Routing policies and the DRB /
// PR-DRB source controllers plug in through small interfaces, mirroring how
// the paper implements its policy inside the OPNET router's routing unit.
package network

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// PacketType distinguishes the two wire formats of §3.3.1 (the T bit).
type PacketType uint8

// Packet types.
const (
	DataPacket PacketType = iota
	AckPacket
)

func (t PacketType) String() string {
	if t == AckPacket {
		return "ACK"
	}
	return "DATA"
}

// FlowKey identifies a traffic flow by its source/destination pair — the
// unit of the paper's contending-flows analysis (§3.2.7).
type FlowKey struct {
	Src, Dst topology.NodeID
}

func (f FlowKey) String() string { return fmt.Sprintf("%d->%d", f.Src, f.Dst) }

// MPI call identifiers carried in the MPI_type header field (§3.3.1), used
// by the trace engine to match packets with logical events.
const (
	MPINone uint8 = iota
	MPISend
	MPIIsend
	MPIRecv
	MPIIrecv
	MPIWait
	MPIWaitall
	MPIBcast
	MPIReduce
	MPIAllreduce
	MPIBarrier
	MPISendrecv
	MPIAlltoall
	MPIReduceScatter
	MPIAllgather
)

// MPITypeName names an MPI_type header value for reports ("?" for values
// outside the known set; MPINone renders as "none").
func MPITypeName(t uint8) string {
	switch t {
	case MPINone:
		return "none"
	case MPISend:
		return "send"
	case MPIIsend:
		return "isend"
	case MPIRecv:
		return "recv"
	case MPIIrecv:
		return "irecv"
	case MPIWait:
		return "wait"
	case MPIWaitall:
		return "waitall"
	case MPIBcast:
		return "bcast"
	case MPIReduce:
		return "reduce"
	case MPIAllreduce:
		return "allreduce"
	case MPIBarrier:
		return "barrier"
	case MPISendrecv:
		return "sendrecv"
	case MPIAlltoall:
		return "alltoall"
	case MPIReduceScatter:
		return "reduce-scatter"
	case MPIAllgather:
		return "allgather"
	}
	return "?"
}

// Packet is the in-simulator representation of both wire formats of §3.3.1.
// One Packet instance travels the whole network (no copying per hop); wire
// encoding exists separately in wire.go for format fidelity and testing.
// Fields have the wire's widths and are ordered so the record packs into
// 128 bytes, a 128-aligned malloc size class, with what every hop reads in
// its first cache line (TestLayoutSizes).
type Packet struct {
	// qnext links the packet into the one list that holds it: a VC queue
	// (vcQueue) or its shard's freelist (pool.go). A packet is queued,
	// in flight, parked or free — never two of these — so one link serves
	// all of them.
	qnext *Packet

	// Waypoints are the MSP intermediate nodes (Fig 3.16: "Intermediate
	// node 1/2" as router IDs); HeaderIdx is the Header_id field advanced
	// by the HDP module at each reached waypoint.
	Waypoints topology.Path

	Dst       topology.NodeID
	SizeBytes int

	// enqueuedAt tracks entry into the current output buffer (not wire
	// state; reset at every hop).
	enqueuedAt sim.Time

	// qcum is the packet's stamp in the VC queue that holds it: the bytes
	// pushed into that queue since it was last empty, counting this packet
	// (vcQueue.bytes). Meaningless once the packet leaves the queue.
	qcum uint32

	HeaderIdx uint8
	Type      PacketType // the T header bit

	// Virtual-channel state (not wire fields): the last VC class and the
	// routing dimension of the last link taken, used to reset dateline —
	// whether a dateline (torus wrap link) has been crossed in the current
	// dimension — at segment boundaries.
	lastClass int8
	curDim    int8
	dateline  bool

	// Predictive (P) and Final fragment (F) header bits.
	Predictive bool
	Final      bool
	MPIType    uint8

	// MSPIndex tells the source which of its metapath's MSPs this packet
	// used, so the ACK can credit the right path (carried in the ACK); -1
	// on a router-originated ACK.
	MSPIndex int32

	// PathLatency is the accumulated contention latency of Eq 3.3: the sum
	// of output-buffer queue waits along the path (Latency Update module).
	PathLatency sim.Time

	ID  uint64
	Src topology.NodeID

	// CreatedAt is when the message was handed to the NIC. End-to-end
	// latency is measured from it (§4.2: "since a packet is created until
	// it reaches the destination").
	CreatedAt sim.Time

	// Message fragmentation bookkeeping (traces cap a message at 1 GiB).
	MsgID uint64

	cold *packetCold // made on first use, kept through recycling (pool.go)

	MPISeq    uint32
	FragCount int32
}

// packetCold is the part of a packet record that only notifications and
// congestion accounting use.
type packetCold struct {
	// Predictive header (Fig 3.18), attached by a congested router's CFD
	// module: the reporting router and the top contending flows. The
	// record owns contending's backing array (pool.go).
	reportRouter topology.RouterID
	contending   []FlowKey

	// Latency-attribution integrals (not wire fields), kept while
	// congestion accounting is on: queueNs accumulates the exact
	// buffer-wait and serNs the critical-path (cut-through header)
	// serialization the packet experienced, including degraded-rate
	// stretch. Read at delivery by the congestion attribution
	// (metrics.Attribution); zeroed when the pool recycles the record.
	queueNs sim.Time
	serNs   sim.Time
}

// coldState returns the packet's cold record, making it on first use.
func (p *Packet) coldState() *packetCold {
	if p.cold == nil {
		p.cold = new(packetCold)
	}
	return p.cold
}

// Contending returns the predictive header's contending flows. The slice
// is the record's own storage: copy what must outlive the packet.
func (p *Packet) Contending() []FlowKey {
	if p.cold == nil {
		return nil
	}
	return p.cold.contending
}

// SetPredictiveHeader writes the predictive header: the reporting router
// and a copy of flows, into the record's own storage.
func (p *Packet) SetPredictiveHeader(router topology.RouterID, flows []FlowKey) {
	c := p.coldState()
	c.reportRouter = router
	c.contending = append(c.contending[:0], flows...)
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey { return FlowKey{Src: p.Src, Dst: p.Dst} }

// CurrentTarget returns the router the packet is currently steering toward
// (its next waypoint), or false if it is in its final segment toward Dst.
func (p *Packet) CurrentTarget() (topology.RouterID, bool) {
	if int(p.HeaderIdx) < len(p.Waypoints) {
		return p.Waypoints[p.HeaderIdx], true
	}
	return 0, false
}

// advanceHeader implements the HDP module (§3.3.2): while the packet sits at
// its current waypoint, bump Header_id to aim at the next segment target.
func (p *Packet) advanceHeader(at topology.RouterID) {
	for int(p.HeaderIdx) < len(p.Waypoints) && p.Waypoints[p.HeaderIdx] == at {
		p.HeaderIdx++
	}
}

// class returns the packet's virtual-channel class: its current MSP
// segment (each segment uses a separate escape channel, §3.2.8 — this is
// what keeps multistep routing deadlock-free) or the dedicated ACK class
// for notification traffic, so the request/reply dependency cannot
// deadlock either.
func (p *Packet) class() int {
	if p.Type == AckPacket && int(p.HeaderIdx) >= len(p.Waypoints) {
		return ackClass
	}
	// A fault-detoured ACK (see NIC.sendAck) rides the ordinary per-segment
	// escape classes until its final segment, where it joins the ACK class:
	// classes stay totally ordered (segments ascend, ACK class is highest),
	// so no walk can descend and close a cycle.
	if p.HeaderIdx > maxWaypoints {
		return maxWaypoints
	}
	return int(p.HeaderIdx)
}

// maxWaypoints is the maximum number of intermediate nodes in an MSP; the
// paper's format carries two (Fig 3.16).
const maxWaypoints = 2

// Virtual-channel classes per output port: one per MSP segment plus one
// for ACKs. On topologies with ring (wraparound) links, every class is
// split into a dateline pair — packets that crossed the wrap link of the
// current dimension move to the high channel, the classical dateline
// scheme that breaks ring dependency cycles.
const (
	numDataClasses = maxWaypoints + 1
	ackClass       = numDataClasses
	numClasses     = numDataClasses + 1
	// maxVCs bounds the physical VC count (dateline pairs everywhere).
	maxVCs = numClasses * 2
)
