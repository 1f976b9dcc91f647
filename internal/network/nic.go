package network

import (
	"fmt"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// SourceController is the per-node source logic slot where the DRB and
// PR-DRB controllers plug in (§3.2: path selection at injection, metapath
// configuration on ACK arrival). The zero controller (nil) injects every
// packet on the direct path and ignores ACKs — the oblivious baselines.
type SourceController interface {
	// Name identifies the controller in reports.
	Name() string
	// PrepareInjection assigns the packet's multistep path (waypoints and
	// MSP index) just before it enters the NIC queue (Fig 3.10).
	PrepareInjection(e *sim.Engine, pkt *Packet)
	// HandleAck processes a returning acknowledgement carrying path latency
	// and, possibly, contending-flow information (Fig 3.17/3.18).
	HandleAck(e *sim.Engine, ack *Packet)
}

// MessageHandler is invoked at the destination NIC when the final fragment
// of a message arrives — the hook the MPI trace engine receives messages
// through.
type MessageHandler func(e *sim.Engine, src topology.NodeID, msgID uint64, bytes int, mpiType uint8, mpiSeq uint32)

// NIC is the processing-node network interface of §4.1.1: the source FSM
// (Fig 4.2) on the send side and the sink FSM (Fig 4.3) plus reassembly on
// the receive side.
type NIC struct {
	ID  topology.NodeID
	net *Network
	sh  *Shard // owning shard — the attach router's
	out *outPort

	// Source is the pluggable DRB/PR-DRB controller; nil means direct
	// injection.
	Source SourceController
	// OnMessage, if set, is called when a complete message has arrived.
	OnMessage MessageHandler

	// Delivered counts complete messages received.
	Delivered int64

	// deliv is the pre-resolved latency/throughput handle for this node
	// (invalid when no collector is attached).
	deliv metrics.DeliveryObserver
}

// Send fragments a message of the given byte size into packets and injects
// them. Zero-byte messages (pure synchronization) travel as one
// minimum-size packet. It returns the message ID.
func (n *NIC) Send(e *sim.Engine, dst topology.NodeID, bytes int, mpiType uint8, mpiSeq uint32) uint64 {
	if dst == n.ID {
		panic("network: self-send reached the NIC; loopback is the host's job")
	}
	if dst < 0 || int(dst) >= len(n.net.NICs) {
		// The fabric would wrap the address and deliver to some other node.
		panic(fmt.Sprintf("network: node %d sends to node %d, outside the fabric's %d terminals", n.ID, dst, len(n.net.NICs)))
	}
	cfg := &n.net.Cfg
	msgID := n.sh.nextMsgID
	n.sh.nextMsgID += n.sh.idStride
	// Under an injured fabric a destination can be cut off entirely; refuse
	// the message cleanly instead of wedging it in a queue no policy can
	// serve. Fault-free runs never pay for the check.
	if !n.net.Reachable(n.ID, dst) {
		n.sh.unreachableMsgs++
		if n.sh.Collector != nil {
			n.sh.Collector.MessageUnreachable()
		}
		n.sh.Tracer.Unreachable(e.Now(), int(n.ID), int(dst))
		if n.sh.Rec != nil {
			n.sh.Rec.Record(telemetry.FlightEvent{
				AtNs: int64(e.Now()), Kind: telemetry.FlightUnreachable,
				Router: -1, Port: -1, VC: -1, Src: int(n.ID), Dst: int(dst),
			})
		}
		return msgID
	}
	frags := (bytes + cfg.PacketBytes - 1) / cfg.PacketBytes
	if frags == 0 {
		frags = 1
	}
	remaining := bytes
	for i := 0; i < frags; i++ {
		size := cfg.PacketBytes
		if remaining < size {
			size = remaining
		}
		if size < cfg.AckBytes {
			size = cfg.AckBytes // header floor
		}
		remaining -= cfg.PacketBytes
		pkt := n.sh.newPacket()
		pkt.Type = DataPacket
		pkt.Src = n.ID
		pkt.Dst = dst
		pkt.SizeBytes = size
		pkt.CreatedAt = e.Now()
		pkt.Final = i == frags-1
		pkt.MPIType = mpiType
		pkt.MPISeq = mpiSeq
		pkt.MsgID = msgID
		pkt.FragCount = int32(frags)
		if n.Source != nil {
			n.Source.PrepareInjection(e, pkt)
		}
		if len(pkt.Waypoints) > maxWaypoints {
			panic("network: source controller set more waypoints than the header carries")
		}
		if n.sh.Collector != nil {
			n.sh.Collector.PacketInjected(pkt.SizeBytes)
		}
		if n.sh.Tracer.Sampled(pkt.ID) {
			n.sh.Tracer.PacketInjected(e.Now(), pkt.ID, int(pkt.Src), int(pkt.Dst), pkt.SizeBytes)
		}
		n.out.enqueue(e, pkt, n.net.prepareVC(n.out, pkt))
	}
	return msgID
}

// accept implements receiver: the sink FSM. Terminals always have space
// (the paper's destination consumes at line rate, Fig 4.3). The NIC is the
// packet's final owner: once the handlers return, the record goes back to
// the pool — handlers (controllers, OnMessage hooks) must not retain
// the *Packet beyond the callback.
func (n *NIC) accept(e *sim.Engine, pkt *Packet, _ *outPort, _ int) bool {
	switch pkt.Type {
	case AckPacket:
		if n.Source != nil {
			n.Source.HandleAck(e, pkt)
		}
		n.sh.releasePacket(pkt)
	case DataPacket:
		if n.deliv.Valid() {
			lat := e.Now() - pkt.CreatedAt
			n.deliv.PacketDelivered(pkt.SizeBytes, lat, e.Now())
			if n.deliv.CongestionOn() {
				// Exact per-packet latency split: buffer waits and per-hop
				// serialization integrate in the packet; the remainder is
				// propagation. Waypointed packets are the detour population.
				c := pkt.coldState() // made at the first hop (pump)
				n.deliv.PacketAttributed(lat, c.queueNs, c.serNs, len(pkt.Waypoints) > 0)
			}
		}
		if n.sh.Tracer.Sampled(pkt.ID) {
			n.sh.Tracer.PacketDelivered(e.Now(), pkt.ID, int(pkt.Src), int(pkt.Dst), e.Now()-pkt.CreatedAt, pkt.MPIType)
		}
		if n.net.Cfg.GenerateAcks {
			n.sendAck(e, pkt)
		}
		n.reassemble(e, pkt)
		n.sh.releasePacket(pkt)
	}
	return true
}

// sendAck builds the destination-based notification of §3.2.2 / Fig 3.17:
// path latency plus, unless a router already notified (P bit, §3.4.2), the
// contending flows logged into the packet's predictive header.
func (n *NIC) sendAck(e *sim.Engine, pkt *Packet) {
	ack := n.sh.newPacket()
	ack.Type = AckPacket
	ack.Src = n.ID
	ack.Dst = pkt.Src
	ack.SizeBytes = n.net.Cfg.AckBytes
	ack.CreatedAt = e.Now()
	ack.PathLatency = pkt.PathLatency
	ack.MSPIndex = pkt.MSPIndex
	ack.MPIType = pkt.MPIType
	ack.MPISeq = pkt.MPISeq
	ack.MsgID = pkt.MsgID
	if !pkt.Predictive {
		// The ACK takes the data packet's cold record, predictive header
		// included, and leaves it its own, so each record keeps one.
		ack.cold, pkt.cold = pkt.cold, ack.cold
	}
	// When a failure cut the direct return route, detour the notification:
	// losing the ACK stream would blind the source exactly when it needs
	// path-latency evidence most (no cost on healthy fabrics — the check
	// short-circuits at fault epoch zero).
	if detour := n.net.ackDetour(n.ID, pkt.Src); detour != nil {
		ack.Waypoints = detour
		n.sh.detouredAcks++
	}
	n.out.enqueue(e, ack, n.net.prepareVC(n.out, ack))
}

func (n *NIC) reassemble(e *sim.Engine, pkt *Packet) {
	// Single-fragment messages — the synthetic-traffic common case — skip
	// the reassembly map entirely: no entry churn on the hot path.
	if pkt.FragCount == 1 {
		n.Delivered++
		if n.deliv.CongestionOn() {
			// Flow completion: creation to last-fragment arrival, against
			// the message's uncontended line-rate serialization.
			n.deliv.MessageCompleted(int64(pkt.SizeBytes), e.Now()-pkt.CreatedAt,
				n.net.Cfg.SerializationTime(pkt.SizeBytes))
		}
		if n.OnMessage != nil {
			n.OnMessage(e, pkt.Src, pkt.MsgID, pkt.SizeBytes, pkt.MPIType, pkt.MPISeq)
		}
		return
	}
	ra := n.sh.reasm[pkt.MsgID]
	ra.got++
	ra.bytes += pkt.SizeBytes
	if ra.got < int(pkt.FragCount) {
		if n.sh.reasm == nil {
			n.sh.reasm = make(map[uint64]fragTally)
		}
		n.sh.reasm[pkt.MsgID] = ra
		return
	}
	delete(n.sh.reasm, pkt.MsgID)
	n.Delivered++
	if n.deliv.CongestionOn() {
		// All fragments share CreatedAt (Send stamps them in one event),
		// so the last arrival closes the whole message's completion time.
		n.deliv.MessageCompleted(int64(ra.bytes), e.Now()-pkt.CreatedAt,
			n.net.Cfg.SerializationTime(ra.bytes))
	}
	if n.OnMessage != nil {
		n.OnMessage(e, pkt.Src, pkt.MsgID, ra.bytes, pkt.MPIType, pkt.MPISeq)
	}
}
