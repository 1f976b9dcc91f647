package network

// Per-shard packet freelist, a LIFO list linked through Packet.qnext. A
// saturated run moves millions of packets
// and — before pooling — allocated every one of them; recycling the records
// keeps the steady-state injection path allocation-free and GC-quiet.
//
// Lifecycle invariants:
//
//   - A packet is acquired (newPacket) at injection: NIC.Send fragments,
//     destination ACKs (NIC.sendAck) and router-originated predictive ACKs
//     (Network.injectPredictiveAcks).
//   - It is released exactly once, by its final owner: the destination NIC
//     after the sink handlers return (NIC.accept), the drop path for
//     packets lost on a failed link (Network.dropPacketAt), or the GPA
//     module when a predictive ACK finds no buffer space
//     (injectPredictiveAcks).
//   - Release zeroes every field but the freelist link qnext, so a stale
//     reference can never observe the next occupant's identity. Slice
//     fields (Waypoints, Contending) only have the reference dropped — their
//     backing arrays may still be shared with live packets (an ACK copies
//     the data packet's Contending slice; detoured ACKs share the cached
//     detour path) and are never scrubbed or reused by the pool. Nor may
//     anyone else write through them: a data packet's Waypoints is the
//     source controller's own path record, shared with every other packet
//     on that path (core.Controller.PrepareInjection does not copy), so
//     the waypoint array of a packet is immutable for its whole life.
//   - Callbacks that receive a *Packet (HandleAck, OnAck, HandlePacketLoss)
//     must copy what they need and not retain the pointer.
//   - A packet that crosses a shard boundary changes pools: the receiving
//     shard becomes its final owner and releases it into its own freelist.
//     Records are interchangeable (identity is reassigned at issue), so
//     migration is harmless.
//
// The pool is deterministic: it is plain per-shard state touched only from
// that shard's engine callbacks, so identical seeds yield identical
// packet-record reuse orders (and identical simulations — packet identity
// never leaks into behaviour).

// newPacket returns a zeroed packet carrying the shard's next packet ID
// (strided by the shard count so IDs are globally unique and per-shard
// sequences are shard-count-independent).
func (sh *Shard) newPacket() *Packet {
	p := sh.pktFree
	if p != nil {
		sh.pktFree, p.qnext = p.qnext, nil
		sh.pktFreeN--
	} else {
		p = &Packet{}
	}
	p.ID = sh.nextPktID
	sh.nextPktID += sh.idStride
	sh.pktIssued++
	return p
}

// releasePacket zeroes p and pushes it onto the freelist, which is linked
// through Packet.qnext. The caller must be the packet's final owner.
func (sh *Shard) releasePacket(p *Packet) {
	*p = Packet{qnext: sh.pktFree}
	sh.pktFree = p
	sh.pktReleased++
	if sh.pktFreeN++; sh.pktFreeN > sh.pktFreePeak {
		sh.pktFreePeak = sh.pktFreeN
	}
}
