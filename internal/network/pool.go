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
//   - Release zeroes every field but the freelist link qnext and the cold
//     record, which it zeroes but for its contending storage (length zero),
//     so a stale reference can never observe the next occupant's identity.
//   - A record gets its cold record (packetCold: predictive header and
//     congestion integrals) when a router tags it (monitorDeparture), a
//     router-originated ACK copies the contending set into it
//     (SetPredictiveHeader) or it leaves a port with congestion accounting
//     on, and keeps it. Runs with neither never make one.
//   - A record owns its cold record: no two records share one, whether
//     queued, in flight, parked or free. The destination's ACK swaps cold
//     records with the data packet it answers (NIC.sendAck), so the
//     predictive header is written into storage that is reused, never
//     allocated per packet once warm.
//   - Waypoints only has the reference dropped: the array belongs to
//     whoever made it and may be shared with live packets (a data packet's
//     Waypoints is the source controller's own path record, shared with
//     every other packet on that path — core.Controller.PrepareInjection
//     does not copy; detoured ACKs share the cached detour path). Nobody
//     writes through it: the waypoint array of a packet is immutable for
//     its whole life.
//   - Callbacks that receive a *Packet (HandleAck, HandlePacketLoss)
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

// newPacket returns a zeroed packet (its cold record, if it has one,
// zeroed but for the reused contending storage) carrying the shard's next packet ID
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

// releasePacket zeroes p but for its cold record's contending storage and
// pushes it onto the freelist, which is linked through Packet.qnext. The
// caller must be the packet's final owner.
func (sh *Shard) releasePacket(p *Packet) {
	c := p.cold
	if c != nil {
		*c = packetCold{contending: c.contending[:0]}
	}
	*p = Packet{qnext: sh.pktFree, cold: c}
	sh.pktFree = p
	sh.pktReleased++
	if sh.pktFreeN++; sh.pktFreeN > sh.pktFreePeak {
		sh.pktFreePeak = sh.pktFreeN
	}
}
