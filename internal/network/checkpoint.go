package network

import (
	"sort"

	"prdrb/internal/ckpt"
)

// Checkpoint capture for the network substrate. The encoder walks every
// piece of state that determines future fabric behavior — port queues and
// link occupancy, packets in flight (wire fields and VC bookkeeping),
// NIC reassembly progress, per-shard counters and packet-pool cursors —
// in a deterministic order: shards, routers and ports by index, map walks
// sorted by key. Derived caches (health reach-sets, ACK detours, CFD tallies and
// scratch) are recomputed on demand from encoded state and are skipped.
//
// Pool freelist contents are recycled records with no behavioral
// identity; only the lengths and ID cursors are captured.

// encodePacket appends one packet (nil encodes as a zero flag).
func encodePacket(e *ckpt.Enc, p *Packet) {
	if p == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.U64(p.ID)
	e.U8(uint8(p.Type))
	e.I64(int64(p.Src))
	e.I64(int64(p.Dst))
	e.Int(len(p.Waypoints))
	for _, w := range p.Waypoints {
		e.I64(int64(w))
	}
	e.Int(p.HeaderIdx)
	e.Int(p.MSPIndex)
	e.Int(p.SizeBytes)
	e.I64(int64(p.PathLatency))
	e.I64(int64(p.CreatedAt))
	e.I64(int64(p.InjectedAt))
	e.Bool(p.Predictive)
	e.Bool(p.Final)
	e.U8(p.MPIType)
	e.U32(p.MPISeq)
	e.U64(p.MsgID)
	e.Int(p.FragIdx)
	e.Int(p.FragCount)
	e.I64(int64(p.ReportRouter))
	e.Int(len(p.Contending))
	for _, f := range p.Contending {
		e.I64(int64(f.Src))
		e.I64(int64(f.Dst))
	}
	e.I64(int64(p.enqueuedAt))
	e.Int(p.curDim)
	e.Bool(p.dateline)
	e.Int(p.lastClass)
	e.Int(p.hops)
	e.I64(int64(p.queueNs))
	e.I64(int64(p.serNs))
}

// encodeState appends one output port: link status, arbitration state,
// occupancy accounting, and every queued, parked and in-flight packet.
func (op *outPort) encodeState(e *ckpt.Enc) {
	e.Bool(op.busy)
	// The lazy link-free state decides the future like a pending event
	// does: its key is the event the port may yet schedule. The ready and
	// queued summaries are derived from the queues below.
	e.Bool(op.lazyFree)
	if op.lazyFree {
		e.U64(op.freeSeq)
	}
	e.Bool(op.down)
	e.F64(op.rate)
	e.I64(int64(op.serEnd))
	e.I64(int64(op.lastRouterAck))
	e.I64(int64(op.busyNs))
	e.I64(op.txBytes)
	e.Int(op.rr)
	e.Int(op.vcCap)
	encodePacket(e, op.inflight)
	e.Int(len(op.vcs))
	for vc := range op.vcs {
		q := &op.vcs[vc]
		e.Int(q.bytes)
		e.Int(len(q.pkts()))
		for _, p := range q.pkts() {
			encodePacket(e, p)
		}
	}
	e.U8(op.parkedOut)
	e.Int(op.parkedN)
	if op.parkedN > 0 { // else nil, or allocated by an earlier park and empty again
		for vc := range op.parked {
			e.Int(len(op.parked[vc]))
			for i := range op.parked[vc] {
				pd := &op.parked[vc][i]
				encodePacket(e, pd.pkt)
				e.Int(pd.fromVC)
			}
		}
	}
	if cp := op.cong; cp == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.I64(cp.waitNs)
		e.I64(cp.deqPkts)
		e.I64(cp.occBytes)
		e.I64(int64(cp.occLast))
		e.I64(cp.occInt)
		e.Int(len(cp.vcBusyNs))
		for vc := range cp.vcBusyNs {
			e.I64(cp.vcBusyNs[vc])
			e.I64(cp.vcStallNs[vc])
			e.I64(int64(cp.stallFrom[vc]))
		}
	}
}

// encodeState appends one NIC: delivery count and reassembly progress
// (sorted by message id).
func (n *NIC) encodeState(e *ckpt.Enc) {
	e.I64(n.Delivered)
	ids := make([]uint64, 0, len(n.reasm))
	for id := range n.reasm {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		r := n.reasm[id]
		e.U64(id)
		e.Int(r.got)
		e.Int(r.total)
		e.Int(r.bytes)
	}
}

// encodeState appends one shard's counters and packet-pool cursors.
func (sh *Shard) encodeState(e *ckpt.Enc) {
	e.U64(sh.pktIssued)
	e.U64(sh.pktReleased)
	e.U64(sh.nextPktID)
	e.U64(sh.nextMsgID)
	e.U64(sh.idStride)
	e.Int(len(sh.pktFree))
	e.Int(sh.pktFreePeak)
	e.I64(sh.predictiveAcksSent)
	e.I64(sh.predictiveAcksDropped)
	e.I64(sh.droppedPkts)
	e.I64(sh.unreachableMsgs)
	e.I64(sh.creditsStalled)
	e.I64(sh.detouredAcks)
}

// EncodeState appends the full network state as one deterministic byte
// stream: fabric-wide counters, every shard, every router's ports in
// (router, port) order, every NIC in node order.
func (n *Network) EncodeState(e *ckpt.Enc) {
	e.U64(n.faultEpoch)
	e.Int(n.vcsPerClass)
	e.Int(n.numVC)
	e.Int(len(n.Shards))
	for _, sh := range n.Shards {
		sh.encodeState(e)
	}
	e.Int(len(n.Routers))
	for _, r := range n.Routers {
		e.Int(len(r.out))
		for _, op := range r.out {
			op.encodeState(e)
		}
	}
	e.Int(len(n.NICs))
	for _, nic := range n.NICs {
		nic.encodeState(e)
		// The NIC's injection port is not in any router's port list.
		nic.out.encodeState(e)
	}
}
