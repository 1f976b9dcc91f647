package network

import (
	"math/bits"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// receiver is the downstream end of a link. accept takes delivery of pkt;
// if the receiver has no buffer space it returns false and guarantees to
// return the credit exactly once — a portEvCredit event to `from` carrying
// fromVC — once the packet has been admitted, at which point the sender may
// reuse the VC. This models credit-based flow control (§2.1.3): a full
// downstream buffer stalls the upstream port, so congestion spreads backward
// exactly as in lossless fabrics.
type receiver interface {
	accept(e *sim.Engine, pkt *Packet, from *outPort, fromVC int) bool
}

// parkedDelivery is an in-flight packet waiting for downstream buffer space,
// remembering the upstream port and VC whose credit it holds.
type parkedDelivery struct {
	pkt    *Packet
	from   *outPort
	fromVC int
}

// vcQueue is one virtual channel's FIFO within an output port: a circular
// list through Packet.qnext addressed by its tail, so the head — the packet
// that leaves next — is tail.qnext and both ends are one load away. Nothing
// grows however deep the queue gets — NIC injection queues are unbounded
// and tens of packets deep on a saturated cell. nil tail means empty.
//
// The queue keeps no byte count of its own: push stamps each packet with
// qcum, the bytes pushed since the queue was last empty counting this
// packet, so the occupancy is the tail's stamp less the head's plus the
// head's size (bytes). The stamps are uint32 and the subtraction modular,
// so the count is exact while a queue holds less than 4 GiB.
type vcQueue struct {
	tail *Packet
}

func (q *vcQueue) push(p *Packet) {
	if q.tail == nil {
		p.qnext = p
		p.qcum = uint32(p.SizeBytes)
	} else {
		p.qnext, q.tail.qnext = q.tail.qnext, p
		p.qcum = q.tail.qcum + uint32(p.SizeBytes)
	}
	q.tail = p
}

func (q *vcQueue) pop() *Packet {
	p := q.tail.qnext
	if p == q.tail {
		q.tail = nil
	} else {
		q.tail.qnext = p.qnext
	}
	p.qnext = nil
	return p
}

// bytes returns the bytes the queue holds.
func (q *vcQueue) bytes() int {
	if q.tail == nil {
		return 0
	}
	h := q.tail.qnext
	return int(q.tail.qcum-h.qcum) + h.SizeBytes
}

// head returns the packet that leaves next, or nil when the queue is empty.
func (q *vcQueue) head() *Packet {
	if q.tail == nil {
		return nil
	}
	return q.tail.qnext
}

// next returns the packet queued behind p, or nil when p is the tail: with
// head, the walk over a queue in FIFO order.
func (q *vcQueue) next(p *Packet) *Packet {
	if p == q.tail {
		return nil
	}
	return p.qnext
}

// The per-port VC sets below are bitmasks in one byte.
var _ [8 - maxVCs]struct{}

// Port flags (outPort.flags): the link's transmission state, written by
// the owning shard on every hop.
const (
	// portBusy is raised when a packet starts serializing and cleared once
	// the link has freed and somebody looked: by the portEvFree event, by
	// freeLink when the delivery outlasted the serialization, or — when
	// the event was never scheduled (portLazyFree) — by the first pump or
	// load that finds its key passed. Read it through linkBusy.
	portBusy uint8 = 1 << iota
	// portLazyFree is set while the link-free event of the current
	// transmission exists only as its reserved key (serEnd, freeSeq): at
	// the moment it was due to be scheduled no VC was eligible to send, so
	// firing it would have done nothing but clear portBusy.
	portLazyFree
)

// Link flags (outPort.link): what the attached link is. They change only
// at build and, for linkDown, at a quiescent point (a barrier task when
// sharded), so the receiving shard of a boundary link may read them
// (Router.HandleRemote) while the owning shard writes its port flags —
// which is why they are a byte of their own.
const (
	// linkDown marks a failed link: the queue is not served, no credits
	// are emitted, and the in-flight packet is dropped on delivery
	// (health.go).
	linkDown uint8 = 1 << iota
	// linkToNIC marks a link into a terminal: its post-serialization delay
	// is Network.txToNIC (propagation only), every other link's txToRouter
	// (propagation plus the routing pipeline).
	linkToNIC
	// linkWrap marks a ring's wraparound link (topology.LinkDim), for
	// dateline VC assignment.
	linkWrap
)

// outPort is an output port with per-VC buffering, round-robin VC
// arbitration (Fig 4.6) and a single serializing link. Ports live in their
// shard's port slab (build), each holding its VC queues; state that most
// ports never touch sits behind cold. What is fixed at build time and
// shared — the VC count, the per-VC capacity, the link delays, the router's
// contention-metrics handle — lives in the Network or Shard, so a port is
// 152 bytes.
type outPort struct {
	sh *Shard // owning shard (the serial network's only one)
	// peer is the downstream end of the link: a *Router, a *NIC, or — for
	// a boundary link, whose router lives on another shard — a *remoteLink,
	// whose deliveries travel the cross-shard protocol (pump, shard.go).
	// Nil for an unwired port.
	peer receiver
	// vcs are the port's VC queues; only the first Network.numVC are used,
	// and the tails past them stay nil.
	vcs [maxVCs]vcQueue
	// serEnd is when the link frees: the in-flight packet's tail has left
	// it (and, on a boundary link, its header has landed — see
	// sendRemote). The port cannot start the next packet before it even if
	// the downstream accepted the (cut-through) header earlier.
	serEnd sim.Time
	// freeSeq is the sequence number reserved for the link-free event
	// while portLazyFree is set.
	freeSeq uint64

	// busyNs and txBytes account link occupancy for the energy/provision
	// analyses (§5.2 open lines).
	busyNs  sim.Time
	txBytes int64

	// inflight is the packet between pump and deliver. At most one packet is
	// ever in that window per port — portBusy is raised by pump and only
	// cleared after the delivery completed (freeLink) — so the deliver
	// event can carry just the VC in its payload word and find the packet
	// here.
	inflight *Packet
	// cold is made by the first park, CFD tally, degradation or
	// router-based notification, and at build for every port when
	// congestion accounting is on (coldState).
	cold *portCold

	// queued is the byte total over all VC queues (the sum of their
	// bytes); an injection queue holds less than 2 GiB.
	queued int32
	router int32 // owning router, or -1 for a NIC port
	port   int16 // index in the router's ports (an int16 as in attachPoint)
	// linkDim classifies the attached link for dateline VC assignment
	// (topology.LinkDim of the wired port), with linkWrap.
	linkDim int8
	rr      uint8 // round-robin arbitration pointer
	// nonEmpty has bit vc set while VC vc's queue holds a packet.
	nonEmpty uint8
	// parkedOut has bit vc set while a packet of this VC sits in the
	// downstream input latch awaiting buffer admission: the VC is blocked
	// (one credit per link and VC) but the physical link stays available
	// to the other VCs — without this, one full VC would couple every
	// class and void the per-segment deadlock freedom.
	parkedOut uint8
	flags     uint8 // the port flags above
	link      uint8 // the link flags above
}

// portCold is the part of a port's state that a port touches only once it
// parks a delivery, keeps a CFD tally, runs degraded or sends router-based
// notifications — or that only congestion accounting uses.
type portCold struct {
	// parked[vc] holds upstream deliveries waiting for space in VC vc;
	// parkedN counts them all.
	parked  [maxVCs][]parkedDelivery
	parkedN int
	// lastRouterAck rate-limits router-based predictive notifications.
	lastRouterAck sim.Time
	// rate scales the link bandwidth when the link is degraded; 0 or 1
	// means nominal rate.
	rate float64
	// cfd is the per-flow byte tally of the data VCs, kept only while the
	// port is deep and congested (see flowTally); nil otherwise.
	cfd *flowTally
	// cong is the port's congestion accumulator (congestion.go); nil when
	// congestion accounting is off, so disabled runs pay one predictable
	// branch per hook and allocate nothing.
	cong *congPort
}

// coldState returns the port's cold record, making it on first use.
func (o *outPort) coldState() *portCold {
	if o.cold == nil {
		o.cold = new(portCold)
	}
	return o.cold
}

// setLink raises or clears the link flag f.
func (o *outPort) setLink(f uint8, on bool) {
	if on {
		o.link |= f
	} else {
		o.link &^= f
	}
}

// isDown reports whether the link has failed (linkDown).
func (o *outPort) isDown() bool { return o.link&linkDown != 0 }

// tally returns the port's CFD tally, or nil outside a congestion episode.
func (o *outPort) tally() *flowTally {
	if c := o.cold; c != nil {
		return c.cfd
	}
	return nil
}

// congestion returns the port's congestion accumulator, or nil when
// congestion accounting is off.
func (o *outPort) congestion() *congPort {
	if c := o.cold; c != nil {
		return c.cong
	}
	return nil
}

// degradedRate returns the link's bandwidth factor while it runs below
// nominal rate, else 0.
func (o *outPort) degradedRate() float64 {
	if c := o.cold; c != nil && c.rate > 0 && c.rate < 1 {
		return c.rate
	}
	return 0
}

// Typed event kinds delivered to an outPort (sim.Actor).
const (
	// portEvDeliver hands the inflight packet to the peer; arg is the VC.
	portEvDeliver uint8 = iota
	// portEvFree releases the link at serEnd and starts the next packet;
	// arg carries the expected serEnd so a superseding transmission
	// invalidates the event. It is only ever scheduled when a VC is
	// eligible to send (at once, or later under its reserved key: see
	// scheduleFree and pump).
	portEvFree
	// portEvCredit returns a VC credit from the downstream receiver; arg is
	// the VC whose parked-out latch freed.
	portEvCredit
)

// HandleEvent implements sim.Actor: the port's hot-path transitions run as
// typed events, so steady-state forwarding schedules nothing but pooled
// event records.
func (o *outPort) HandleEvent(e *sim.Engine, kind uint8, arg uint64) {
	switch kind {
	case portEvDeliver:
		pkt := o.inflight
		o.inflight = nil
		o.deliver(e, pkt, int(arg))
	case portEvFree:
		if uint64(o.serEnd) == arg { // not superseded
			o.flags &^= portBusy
			o.pump(e)
		}
	case portEvCredit:
		o.creditReturned(e, int(arg))
	}
}

// free returns the bytes VC vc of a router port can still admit. A NIC's
// injection queues are unbounded — NIC.Send enqueues without asking: the
// offered load is the experiment input and the growing queue is how
// saturation shows up as latency (§4.2's open-loop sources).
func (o *outPort) free(vc int) int { return o.sh.net.vcCap - o.vcs[vc].bytes() }

// fits reports whether VC vc of a router port can admit size bytes, as
// free(vc) >= size does. A VC never holds more than the port's queued
// total, so while that total leaves room no packet stamp is read.
func (o *outPort) fits(vc, size int) bool {
	return int(o.queued)+size <= o.sh.net.vcCap || o.free(vc) >= size
}

// txExtra is the link's fixed post-serialization delay.
func (o *outPort) txExtra() sim.Time {
	if o.link&linkToNIC != 0 {
		return o.sh.net.txToNIC
	}
	return o.sh.net.txToRouter
}

// enqueue admits pkt into VC vc; the caller has verified space.
func (o *outPort) enqueue(e *sim.Engine, pkt *Packet, vc int) {
	pkt.enqueuedAt = e.Now()
	if cp := o.congestion(); cp != nil {
		cp.enqueued(e.Now(), pkt.SizeBytes)
	}
	o.vcs[vc].push(pkt)
	o.queued += int32(pkt.SizeBytes)
	o.nonEmpty |= 1 << uint(vc)
	if t := o.tally(); t != nil && !o.sh.net.isAckVC(vc) {
		t.add(pkt)
	}
	o.pump(e)
}

// ready returns the VCs eligible to send: queue non-empty and credit held.
func (o *outPort) ready() uint8 { return o.nonEmpty &^ o.parkedOut }

// pickVC round-robins over the ready (non-zero) set: the first eligible VC
// at or after the arbitration pointer, wrapping. The pointer needs no wrap
// of its own: past the last VC (at most 8, the mask's width) the shifted
// mask is empty, which is the wrap.
func (o *outPort) pickVC(ready uint8) int {
	m := ready >> o.rr << o.rr
	if m == 0 {
		m = ready
	}
	vc := bits.TrailingZeros8(m)
	o.rr = uint8(vc + 1)
	return vc
}

// linkBusy reports whether the link is still occupied, settling a lazily
// freed link whose reserved event key has passed.
func (o *outPort) linkBusy(e *sim.Engine) bool {
	if o.flags&portLazyFree != 0 && e.Passed(o.serEnd, o.freeSeq) {
		o.flags &^= portLazyFree | portBusy
	}
	return o.flags&portBusy != 0
}

// materialiseFree creates the link-free event of a lazily busy link under
// the key it always had; the key must not have passed (linkBusy).
func (o *outPort) materialiseFree(e *sim.Engine) {
	if o.flags&portLazyFree != 0 {
		o.flags &^= portLazyFree
		o.sh.events.LinkFree++
		e.ScheduleReserved(o.serEnd, o.freeSeq, o, portEvFree, uint64(o.serEnd))
	}
}

// pump starts transmitting the next queued packet if the link is idle. A
// down link is never pumped: its queue survives, frozen, until repair.
func (o *outPort) pump(e *sim.Engine) {
	ready := o.ready()
	if ready == 0 || o.isDown() {
		return
	}
	if o.linkBusy(e) {
		// Somebody waits now, so a reserved link-free event has work to
		// do after all.
		o.materialiseFree(e)
		return
	}
	vc := o.pickVC(ready)
	q := &o.vcs[vc]
	pkt := q.pop()
	o.queued -= int32(pkt.SizeBytes)
	if q.tail == nil {
		o.nonEmpty &^= 1 << uint(vc)
	}
	if t := o.tally(); t != nil && !o.sh.net.isAckVC(vc) {
		t.remove(pkt)
	}
	o.flags |= portBusy

	wait := e.Now() - pkt.enqueuedAt
	cp := o.congestion()
	if cp != nil {
		cp.dequeued(e.Now(), pkt.SizeBytes, wait)
	}
	if o.router >= 0 {
		// Latency Update module (Eq 3.3): accumulate buffer wait into the
		// packet and record the router's contention latency.
		pkt.PathLatency += wait
		if obs := o.sh.routerObs; obs != nil {
			obs[o.router].Observe(wait, e.Now())
		}
		if o.sh.Tracer.Sampled(pkt.ID) {
			o.sh.Tracer.PacketHop(e.Now(), pkt.ID, int(o.router), int(o.port), wait)
		}
		o.monitorDeparture(e, pkt, wait)
	}
	// Space was freed: admit parked upstream deliveries.
	o.admitParked(e)

	// Virtual cut-through (§2.1.2): the downstream device sees the packet
	// after just the header time, while this link stays occupied for the
	// full serialization. Backpressure holds the VC, not the link: see
	// deliver/creditReturned.
	net := o.sh.net
	ser, cut := net.serTime(pkt.SizeBytes), net.serHeader
	if rate := o.degradedRate(); rate > 0 {
		// Transient bandwidth degradation stretches serialization.
		ser = sim.Time(float64(ser) / rate)
		cut = sim.Time(float64(cut) / rate)
	}
	if cut > ser {
		cut = ser
	}
	o.serEnd = e.Now() + ser
	o.busyNs += ser
	o.txBytes += int64(pkt.SizeBytes)
	if cp != nil {
		cp.vcBusyNs[vc] += int64(ser)
		// Attribution integrates the buffer wait and the serialization on
		// the packet's critical path: under cut-through the downstream hop
		// proceeds after the header time, so only cut delays this packet —
		// the body's ser tail shows up as queueing behind the busy link
		// downstream, never double-counted.
		c := pkt.coldState()
		c.queueNs += wait
		c.serNs += cut
	}
	if rl, ok := o.peer.(*remoteLink); ok {
		o.sendRemote(e, rl, pkt, vc, cut)
		return
	}
	o.inflight = pkt
	e.AfterEvent(cut+o.txExtra(), o, portEvDeliver, uint64(vc))
}

// sendRemote ships the packet across a shard boundary with exactly the
// arrival timestamp the local deliver event would have had (cut-through
// header time plus link/routing delay — at least the group lookahead, so
// the destination shard has not advanced past it). Flow control turns
// pessimistic at boundaries: every transmission parks the VC until the
// receiver returns the credit, one lookahead after arrival. Data packets
// serialize for longer than that round trip, so only the narrow ACK
// channel feels the throttle. The physical link itself frees at the same
// instant the local path would have freed it — the later of serialization
// end and header arrival — which serEnd is moved to, so the link-free
// event follows the same schedule-or-reserve rule as on a local port.
func (o *outPort) sendRemote(e *sim.Engine, rl *remoteLink, pkt *Packet, vc int, cut sim.Time) {
	arrive := e.Now() + cut + o.txExtra()
	o.parkedOut |= 1 << uint(vc)
	o.sh.events.Handoffs++
	o.sh.net.group.Send(o.sh.Idx, rl.shard, sim.RemoteEvent{
		At:     arrive,
		Target: rl.target,
		Kind:   remoteDeliver,
		Arg:    uint64(vc),
		Ptr:    pkt,
		Aux:    o,
	})
	if arrive > o.serEnd {
		o.serEnd = arrive
	}
	o.scheduleFree(e)
}

// scheduleFree arranges for the busy link to free at serEnd. One rule: if a
// VC is eligible to send, the event is scheduled, because it will start
// that packet; if none is, the event would only clear busy, so the port
// takes its sequence number and keeps the key instead. Whoever next asks
// (pump, load) either finds the key passed — the link is free — or, having
// made a VC eligible, schedules the event under that key. Every other
// event keeps its (time, seq) key either way, so nothing else moves. The
// one observer of pending events as such, a shard group about to run a
// fabric-control task, gets them all (Network.ScheduleControl).
func (o *outPort) scheduleFree(e *sim.Engine) {
	if o.ready() != 0 || o.sh.net.controlPending > 0 {
		o.sh.events.LinkFree++
		e.ScheduleEvent(o.serEnd, o, portEvFree, uint64(o.serEnd))
		return
	}
	o.flags |= portLazyFree
	o.freeSeq = e.ReserveSeq()
}

// monitorDeparture drives CFD (§3.3.2). The machinery is gated on
// GenerateAcks: the predictive header it writes is only ever read back
// through the ACK path, so runs without ACKs (the oblivious baselines) skip
// the contending-flows bookkeeping entirely.
func (o *outPort) monitorDeparture(e *sim.Engine, pkt *Packet, wait sim.Time) {
	cfg := &o.sh.net.Cfg
	if !cfg.GenerateAcks {
		return
	}
	if pkt.Type == DataPacket {
		if wait <= cfg.CongestionThreshold {
			// The data VCs are keeping up again: the episode is over.
			o.dropTally()
			return
		}
		// flows is shard scratch: whatever outlives this call copies it
		// into storage of its own.
		flows := o.topContendingFlows(pkt)
		if len(flows) > 0 {
			switch cfg.NotifyMode {
			case DestinationBased:
				// Attach/merge the predictive header into the packet's own
				// backing; the destination hands it to the ACK (§3.2.2).
				c := pkt.coldState()
				c.reportRouter = topology.RouterID(o.router)
				c.contending = mergeFlows(c.contending, flows, cfg.MaxContending)
			case RouterBased:
				if c := o.coldState(); e.Now()-c.lastRouterAck >= cfg.RouterAckInterval {
					c.lastRouterAck = e.Now()
					o.sh.net.injectPredictiveAcks(e, o, flows, wait)
				}
				// P bit: tell the destination a predictive ACK was already
				// sent, so it replies with a latency-only ACK (§3.4.2).
				pkt.Predictive = true
			}
		}
	}
	if t := o.tally(); t != nil && t.total == 0 {
		o.dropTally() // the data VCs drained
	}
}

// flowBytes is one entry of the CFD ranking: a flow and the bytes it holds
// in the port's buffers.
type flowBytes struct {
	f FlowKey
	b int
}

// before is the ranking's total order: bytes descending, then Src and Dst
// ascending.
func (a flowBytes) before(b flowBytes) bool {
	if a.b != b.b {
		return a.b > b.b
	}
	if a.f.Src != b.f.Src {
		return a.f.Src < b.f.Src
	}
	return a.f.Dst < b.f.Dst
}

// flowTally is the bytes each flow holds in a port's data VCs, kept
// incrementally while a deep port is congested. A congested port ranks at
// every data departure; recounting its queues each time (recountFlows) is
// cheap while it holds a handful of packets, and quadratic once it holds
// hundreds of packets of dozens of flows. From tallyDepth packets' worth of
// bytes up, the first departure that waited longer than CongestionThreshold
// therefore counts the queues once into a tally, which enqueue (add) and
// pump (remove) keep current until a data departure waits no longer than
// the threshold or the data VCs drain, when it goes back to the shard.
type flowTally struct {
	// flows is dense and unordered, so that ranking is a slice walk; at
	// finds a flow's entry in it by tallyKey (one word hashes in half the
	// time of the two-word FlowKey, and the lookups are all a shallow
	// congested port pays).
	flows []flowBytes
	at    map[uint64]int
	total int
}

// tallyDepth is the queue depth, in data packets' worth of bytes, from which
// a congested port keeps a tally instead of recounting: two map operations a
// packet against a recount of depth × flows/2 comparisons a departure break
// even at a few dozen packets.
const tallyDepth = 32

// tallyKey packs a flow into one word; terminals number far below 2^32
// (topology.ByName caps them at 2^20).
func tallyKey(f FlowKey) uint64 { return uint64(f.Src)<<32 | uint64(uint32(f.Dst)) }

func (t *flowTally) add(p *Packet) {
	f := p.Flow()
	if i, ok := t.at[tallyKey(f)]; ok {
		t.flows[i].b += p.SizeBytes
	} else {
		t.at[tallyKey(f)] = len(t.flows)
		t.flows = append(t.flows, flowBytes{f, p.SizeBytes})
	}
	t.total += p.SizeBytes
}

// remove takes out a packet that add (or the building scan) counted; a flow
// left without bytes gives its entry to the last one.
func (t *flowTally) remove(p *Packet) {
	k := tallyKey(p.Flow())
	i := t.at[k]
	t.total -= p.SizeBytes
	if t.flows[i].b -= p.SizeBytes; t.flows[i].b > 0 {
		return
	}
	delete(t.at, k)
	last := len(t.flows) - 1
	if i != last {
		t.flows[i] = t.flows[last]
		t.at[tallyKey(t.flows[i].f)] = i
	}
	t.flows = t.flows[:last]
}

// buildTally starts a congestion episode: count what the data VCs hold.
func (o *outPort) buildTally() *flowTally {
	sh := o.sh
	var t *flowTally
	if k := len(sh.tallyFree); k > 0 {
		t, sh.tallyFree = sh.tallyFree[k-1], sh.tallyFree[:k-1]
	} else {
		t = &flowTally{at: make(map[uint64]int)}
	}
	for vc := range sh.net.numVC {
		if sh.net.isAckVC(vc) {
			continue
		}
		q := &o.vcs[vc]
		for p := q.head(); p != nil; p = q.next(p) {
			t.add(p)
		}
	}
	o.coldState().cfd = t
	return t
}

// dropTally ends the congestion episode, if one is open; the emptied tally
// goes back to the shard for the next port that needs one.
func (o *outPort) dropTally() {
	if t := o.tally(); t != nil {
		clear(t.at)
		t.flows, t.total = t.flows[:0], 0
		o.sh.tallyFree = append(o.sh.tallyFree, t)
		o.cold.cfd = nil
	}
}

// topContendingFlows implements the §3.2.7 selection: rank the flows
// currently occupying this port's buffers by byte share and keep those
// above ContendShare, capped at MaxContending. The departing packet's own
// flow is included — it is, by definition, contending here — and a port
// holding a single flow still reports it, so the source can identify
// self-induced congestion. The result lives in shard scratch and is valid
// until the shard's next call.
func (o *outPort) topContendingFlows(departing *Packet) []FlowKey {
	t := o.tally()
	if t == nil {
		if int(o.queued) < tallyDepth*o.sh.net.Cfg.PacketBytes {
			flows, total := o.recountFlows(departing)
			return o.rankFlows(flows, total)
		}
		t = o.buildTally()
	}
	t.add(departing)
	top := o.rankFlows(t.flows, t.total)
	t.remove(departing)
	return top
}

// recountFlows tallies the departing packet and the data VCs' queues by a
// linear find-or-append into shard scratch: the shallow port's way.
func (o *outPort) recountFlows(departing *Packet) (flows []flowBytes, total int) {
	flows = append(o.sh.flowRank[:0], flowBytes{departing.Flow(), departing.SizeBytes})
	total = departing.SizeBytes
	for vc := range o.sh.net.numVC {
		if o.sh.net.isAckVC(vc) {
			continue
		}
		q := &o.vcs[vc]
		for p := q.head(); p != nil; p = q.next(p) {
			total += p.SizeBytes
			f, i := p.Flow(), 0
			for i < len(flows) && flows[i].f != f {
				i++
			}
			if i == len(flows) {
				flows = append(flows, flowBytes{f: f})
			}
			flows[i].b += p.SizeBytes
		}
	}
	o.sh.flowRank = flows[:0]
	return flows, total
}

// rankFlows is the selection proper: one pass over the per-flow bytes with
// an insertion into the at most MaxContending flows kept. before is a total
// order, so the order of flows does not show in the result.
func (o *outPort) rankFlows(flows []flowBytes, total int) []FlowKey {
	floor := o.sh.net.Cfg.ContendShare * float64(total)
	limit := o.sh.net.Cfg.MaxContending
	kept := o.sh.flowKept[:0]
	for _, r := range flows {
		if float64(r.b) < floor {
			continue
		}
		if len(kept) == limit {
			if limit == 0 || !r.before(kept[limit-1]) {
				continue
			}
			kept = kept[:limit-1]
		}
		kept = append(kept, r)
		for j := len(kept) - 1; j > 0 && kept[j].before(kept[j-1]); j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	top := o.sh.flowTop[:0]
	for _, r := range kept {
		top = append(top, r.f)
	}
	o.sh.flowKept, o.sh.flowTop = kept[:0], top[:0]
	return top
}

// mergeFlows merges new flows into an existing predictive header, keeping
// order and the capacity cap.
func mergeFlows(have, add []FlowKey, max int) []FlowKey {
	for _, f := range add {
		if len(have) >= max {
			break
		}
		known := false
		for _, h := range have {
			if h == f {
				known = true
				break
			}
		}
		if !known {
			have = append(have, f)
		}
	}
	return have
}

// deliver hands the packet to the downstream receiver. On refusal the
// packet stays in the downstream input latch: the VC loses its credit
// (parkedOut) but the link itself frees at serialization end, so other
// virtual channels keep flowing.
func (o *outPort) deliver(e *sim.Engine, pkt *Packet, vc int) {
	if o.peer == nil {
		panic("network: delivery on unwired port")
	}
	if o.isDown() {
		// The link died under the packet: it is lost. The link is still
		// freed so service restarts cleanly after repair.
		o.sh.net.dropPacketAt(e, o.sh, pkt, int(o.router))
		o.freeLink(e)
		return
	}
	if o.link&linkWrap != 0 {
		// The packet just crossed this ring's dateline: it continues on
		// the high virtual channel of its class within this dimension.
		pkt.dateline = true
	}
	if !o.peer.accept(e, pkt, o, vc) {
		o.parkedOut |= 1 << uint(vc)
		o.sh.creditsStalled++
		if cp := o.congestion(); cp != nil && cp.stallFrom[vc] < 0 {
			cp.stallFrom[vc] = e.Now()
		}
		if o.sh.Rec != nil {
			o.sh.Rec.Record(telemetry.FlightEvent{
				AtNs: int64(e.Now()), Kind: telemetry.FlightStall,
				Router: int(o.router), Port: int(o.port), VC: vc,
				Pkt: pkt.ID, Src: int(pkt.Src), Dst: int(pkt.Dst),
			})
		}
	}
	o.freeLink(e)
}

// creditReturned runs when the downstream admits a previously parked
// packet: the VC's credit comes back.
func (o *outPort) creditReturned(e *sim.Engine, vc int) {
	o.parkedOut &^= 1 << uint(vc)
	if cp := o.congestion(); cp != nil {
		if s := cp.stallFrom[vc]; s >= 0 {
			cp.vcStallNs[vc] += int64(e.Now() - s)
			cp.stallFrom[vc] = -1
		}
	}
	o.pump(e)
}

// freeLink releases the physical link once the packet's tail has left it.
func (o *outPort) freeLink(e *sim.Engine) {
	if e.Now() < o.serEnd {
		o.scheduleFree(e)
		return
	}
	o.flags &^= portBusy
	o.pump(e)
}

// park holds a refused delivery until VC vc has room for it.
func (o *outPort) park(pd parkedDelivery, vc int) {
	c := o.coldState()
	c.parked[vc] = append(c.parked[vc], pd)
	c.parkedN++
}

// admitParked moves waiting upstream deliveries into freed buffer space,
// fairly across VCs, and resumes their senders.
func (o *outPort) admitParked(e *sim.Engine) {
	c := o.cold
	if c == nil || c.parkedN == 0 {
		return
	}
	for vc := range o.sh.net.numVC {
		for len(c.parked[vc]) > 0 && o.fits(vc, c.parked[vc][0].pkt.SizeBytes) {
			pd := c.parked[vc][0]
			copy(c.parked[vc], c.parked[vc][1:])
			c.parked[vc] = c.parked[vc][:len(c.parked[vc])-1]
			c.parkedN--
			o.enqueue(e, pd.pkt, vc)
			if pd.from.sh != o.sh {
				// The sender lives on another shard: its pessimistic
				// credit comes back over the boundary, one lookahead out.
				o.sh.sendCredit(e, pd.from, pd.fromVC)
				continue
			}
			// Return the credit via a fresh event to bound recursion depth.
			o.sh.events.LocalCredits++
			e.AfterEvent(0, pd.from, portEvCredit, uint64(pd.fromVC))
		}
	}
}

// load returns the total queued bytes (a congestion signal for adaptive
// routing policies), including a nominal in-flight packet when busy.
func (o *outPort) load() int {
	if o.linkBusy(o.sh.Eng) {
		return int(o.queued) + o.sh.net.Cfg.PacketBytes
	}
	return int(o.queued)
}
