package network

import (
	"fmt"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Network wires a topology into routers, links and NICs and carries the
// run-wide configuration, routing policy and metric collectors. All
// per-run mutable hot-path state lives in Shards (see shard.go): a serial
// network has exactly one shard and runs the historical single-engine
// code paths; a sharded network partitions the routers across engines
// synchronized by a sim.ShardGroup.
type Network struct {
	// Eng is the engine in serial mode; nil when sharded (use
	// EngineForNode or Group then).
	Eng    *sim.Engine
	Topo   topology.Topology
	Cfg    Config
	Policy RouterPolicy

	Routers []*Router
	NICs    []*NIC

	// Shards holds the per-shard mutable state; serial mode has one.
	Shards []*Shard
	// group synchronizes the shard engines; nil in serial mode.
	group *sim.ShardGroup

	// vcsPerClass is 2 when the topology has ring (wrap) links — dateline
	// channel pairs — and 1 otherwise. numVC = numClasses * vcsPerClass.
	vcsPerClass int
	numVC       int
	// vcCap is a router port's capacity per VC in bytes (BufferBytes split
	// over numVC); NIC injection queues are unbounded (outPort.free).
	vcCap int
	// txToRouter and txToNIC are the fixed post-serialization delays of a
	// link into a router (propagation plus routing pipeline) and into a
	// terminal (propagation only).
	txToRouter, txToNIC sim.Time

	// serHeader, serPacket and serAck are the serialization times of the
	// three sizes the fabric moves almost exclusively (the cut-through
	// header, a full data packet, an ACK), computed once: Cfg does not
	// change after construction.
	serHeader, serPacket, serAck sim.Time
	// attach is TerminalAttach for every terminal, the route memo's index:
	// routes are memoised per destination attach router (router.go).
	attach []attachPoint

	// controlPending counts the fabric-control barrier tasks a sharded
	// network has registered and not yet run (ScheduleControl). Like
	// faultEpoch it only changes at barriers or between runs.
	controlPending int
	// faultEpoch increments on every link up/down transition; zero means
	// the fabric has always been healthy and health checks short-circuit.
	// Sharded runs only mutate it inside barrier tasks, so mid-window
	// reads are race-free.
	faultEpoch uint64
}

// flowPair keys per-(src,dst) caches.
type flowPair struct {
	src, dst topology.NodeID
}

// New builds a serial network. policy must not be nil; collector may be
// nil.
func New(eng *sim.Engine, topo topology.Topology, cfg Config, policy RouterPolicy, collector *metrics.Collector) (*Network, error) {
	sh := &Shard{Eng: eng, Collector: collector, idStride: 1}
	n, err := build(topo, cfg, policy, []*Shard{sh}, nil)
	if err != nil {
		return nil, err
	}
	n.Eng = eng
	return n, nil
}

// NewSharded builds a network partitioned across the group's engines.
// assign maps every router to a shard index (internal/topology.Partition
// produces one); each terminal lives on its attach router's shard, so
// terminal links never cross shards. collectors and tracers supply the
// per-shard observation sinks (entries may be nil). The group's window
// must not exceed Cfg.Lookahead() — the minimum cross-shard event
// latency — or Run will panic on the first boundary crossing.
func NewSharded(group *sim.ShardGroup, topo topology.Topology, cfg Config, policy RouterPolicy,
	collectors []*metrics.Collector, tracers []*telemetry.Tracer, assign []int) (*Network, error) {
	k := group.Shards()
	if len(collectors) != k || len(tracers) != k {
		return nil, fmt.Errorf("network: %d shards need %d collectors and tracers, got %d and %d",
			k, k, len(collectors), len(tracers))
	}
	if len(assign) != topo.NumRouters() {
		return nil, fmt.Errorf("network: assignment covers %d routers, topology has %d",
			len(assign), topo.NumRouters())
	}
	if w := cfg.Lookahead(); group.Window > w {
		return nil, fmt.Errorf("network: group window %d exceeds lookahead %d", group.Window, w)
	}
	shards := make([]*Shard, k)
	for i := range shards {
		shards[i] = &Shard{
			Idx:       i,
			Eng:       group.Engines[i],
			Collector: collectors[i],
			Tracer:    tracers[i],
			nextPktID: uint64(i),
			nextMsgID: uint64(i),
			idStride:  uint64(k),
		}
	}
	for _, s := range assign {
		if s < 0 || s >= k {
			return nil, fmt.Errorf("network: shard assignment %d out of range [0,%d)", s, k)
		}
	}
	n, err := build(topo, cfg, policy, shards, assign)
	if err != nil {
		return nil, err
	}
	n.group = group
	return n, nil
}

// build wires routers, NICs and links, attaching every component to its
// owning shard. assign == nil means everything on shards[0].
func build(topo topology.Topology, cfg Config, policy RouterPolicy, shards []*Shard, assign []int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("network: nil routing policy")
	}
	n := &Network{
		Topo:       topo,
		Cfg:        cfg,
		Policy:     policy,
		Shards:     shards,
		serHeader:  cfg.SerializationTime(cfg.HeaderBytes),
		serPacket:  cfg.SerializationTime(cfg.PacketBytes),
		serAck:     cfg.SerializationTime(cfg.AckBytes),
		txToRouter: cfg.LinkDelay + cfg.RoutingDelay,
		txToNIC:    cfg.LinkDelay,
	}
	for _, sh := range shards {
		sh.net = n
	}
	shardOf := func(r topology.RouterID) *Shard {
		if assign == nil {
			return shards[0]
		}
		return shards[assign[r]]
	}
	// Dateline channel pairs are only needed on topologies with ring
	// (wraparound) links.
	n.vcsPerClass = 1
	for r := topology.RouterID(0); int(r) < topo.NumRouters(); r++ {
		for p := 0; p < topo.Radix(r); p++ {
			if _, wrap := topo.LinkDim(r, p); wrap {
				n.vcsPerClass = 2
			}
		}
	}
	n.numVC = numClasses * n.vcsPerClass
	n.vcCap = cfg.BufferBytes / n.numVC

	// Port state is slab-allocated: count each shard's ports (its routers'
	// and its NICs'), then carve every port out of one []outPort and its VC
	// queues out of one []vcQueue arena per shard. A port addresses its
	// queues as a *[maxVCs]vcQueue, so the arena ends in maxVCs-numVC
	// queues of slack that no port uses. Neither slab is ever grown, so a
	// *outPort stays valid for the network's life; routers, NICs and the
	// routers' MinimalPorts scratch get one slab each too, so building
	// allocates O(shards), not O(ports).
	numRouters, numTerms := topo.NumRouters(), topo.NumTerminals()
	portsOn := make([]int, len(shards))
	radixSum := 0
	for r := 0; r < numRouters; r++ {
		k := topo.Radix(topology.RouterID(r))
		portsOn[shardOf(topology.RouterID(r)).Idx] += k
		radixSum += k
	}
	for t := 0; t < numTerms; t++ {
		r, _ := topo.TerminalAttach(topology.NodeID(t))
		portsOn[shardOf(r).Idx]++
	}
	type portSlab struct {
		ports []outPort
		vcs   []vcQueue
	}
	slabs := make([]portSlab, len(shards))
	for i, k := range portsOn {
		slabs[i] = portSlab{make([]outPort, 0, k), make([]vcQueue, k*n.numVC+maxVCs-n.numVC)}
		if sh := shards[i]; sh.Collector != nil {
			// Resolve the contention-metrics handles once, at wiring time.
			sh.routerObs = make([]metrics.RouterObserver, numRouters)
		}
	}
	// newPorts takes the next k ports of sh's slab for router (-1 for a
	// NIC).
	newPorts := func(sh *Shard, router topology.RouterID, k int) []outPort {
		s := &slabs[sh.Idx]
		at := len(s.ports)
		s.ports = s.ports[:at+k]
		for p := at; p < at+k; p++ {
			op := &s.ports[p]
			op.sh = sh
			op.router = int32(router)
			op.port = int16(p - at)
			op.vcs = (*[maxVCs]vcQueue)(s.vcs)
			s.vcs = s.vcs[n.numVC:]
			if cfg.Congestion {
				op.coldState().cong = newCongPort(n.numVC)
			}
		}
		return s.ports[at : at+k : at+k]
	}
	// Routers and their output ports.
	routers := make([]Router, numRouters)
	mpBufs := make([]int, radixSum)
	n.Routers = make([]*Router, numRouters)
	for r := range routers {
		sh := shardOf(topology.RouterID(r))
		rt := &routers[r]
		rt.ID, rt.net, rt.sh = topology.RouterID(r), n, sh
		radix := topo.Radix(rt.ID)
		rt.mpBuf, mpBufs = mpBufs[:0:radix], mpBufs[radix:]
		rt.out = newPorts(sh, rt.ID, radix)
		if sh.routerObs != nil {
			sh.routerObs[r] = sh.Collector.Contention.Observer(r)
		}
		for p := range rt.out {
			dim, wrap := topo.LinkDim(rt.ID, p)
			rt.out[p].linkDim = int8(dim)
			rt.out[p].setLink(linkWrap, wrap)
		}
		n.Routers[r] = rt
	}
	// NICs, co-located with their attach router's shard.
	nics := make([]NIC, numTerms)
	n.NICs = make([]*NIC, numTerms)
	n.attach = make([]attachPoint, numTerms)
	for t := range nics {
		r, p := topo.TerminalAttach(topology.NodeID(t))
		n.attach[t] = attachPoint{router: int32(r), port: int16(p)}
		sh := shardOf(r)
		nic := &nics[t]
		nic.ID, nic.net, nic.sh = topology.NodeID(t), n, sh
		if sh.Collector != nil {
			nic.deliv = sh.Collector.DeliveryObserver(t)
		}
		nic.out = &newPorts(sh, topology.None, 1)[0]
		nic.out.linkDim = -1
		n.NICs[t] = nic
	}
	// Wire ports; router-router links whose ends live on different shards
	// become boundary links served by the cross-shard protocol. A boundary
	// port's remoteLink depends on the receiving router only: one each.
	var remotes []remoteLink
	if len(shards) > 1 {
		remotes = make([]remoteLink, numRouters)
		for r, rt := range n.Routers {
			remotes[r] = remoteLink{shard: rt.sh.Idx, target: rt}
		}
	}
	for r := range n.Routers {
		rt := n.Routers[r]
		for p := range rt.out {
			peer := topo.PortPeer(rt.ID, p)
			op := &rt.out[p]
			switch {
			case peer.Unwired():
				op.peer = nil
			case peer.IsTerminal():
				op.peer = n.NICs[peer.Terminal]
				op.link |= linkToNIC
			case n.Routers[peer.Router].sh != rt.sh:
				op.peer = &remotes[peer.Router]
			default:
				op.peer = n.Routers[peer.Router]
			}
		}
	}
	for t := range n.NICs {
		r, _ := topo.TerminalAttach(topology.NodeID(t))
		n.NICs[t].out.peer = n.Routers[r]
	}
	return n, nil
}

// serTime is Cfg.SerializationTime through the precomputed sizes.
func (n *Network) serTime(bytes int) sim.Time {
	switch bytes {
	case n.Cfg.PacketBytes:
		return n.serPacket
	case n.Cfg.AckBytes:
		return n.serAck
	}
	return n.Cfg.SerializationTime(bytes)
}

// vcIndex maps (class, dateline) to a physical virtual channel.
func (n *Network) vcIndex(class int, dateline bool) int {
	vc := class * n.vcsPerClass
	if dateline && n.vcsPerClass == 2 {
		vc++
	}
	return vc
}

// isAckVC reports whether a physical VC belongs to the ACK class.
func (n *Network) isAckVC(vc int) bool { return vc/n.vcsPerClass == ackClass }

// prepareVC updates the packet's dateline state for the chosen output port
// and returns the physical VC it must occupy there. The dateline bit
// resets at every VC-class (MSP segment) boundary and at every routing
// dimension change; it is set by outPort.deliver when the packet crosses a
// ring's wrap link.
func (n *Network) prepareVC(op *outPort, pkt *Packet) int {
	c := pkt.class()
	if int8(c) != pkt.lastClass {
		pkt.lastClass = int8(c)
		pkt.dateline = false
		pkt.curDim = -99
	}
	if op.linkDim != pkt.curDim {
		pkt.curDim = op.linkDim
		pkt.dateline = false
	}
	return n.vcIndex(c, pkt.dateline)
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(eng *sim.Engine, topo topology.Topology, cfg Config, policy RouterPolicy, collector *metrics.Collector) *Network {
	n, err := New(eng, topo, cfg, policy, collector)
	if err != nil {
		panic(err)
	}
	return n
}

// SetTracer attaches the trace sink of a serial network. Sharded networks
// take per-shard tracer forks at construction instead.
func (n *Network) SetTracer(t *telemetry.Tracer) {
	if n.group != nil {
		panic("network: SetTracer on a sharded network; pass per-shard tracers to NewSharded")
	}
	n.Shards[0].Tracer = t
}

// SetSourceController installs the same controller constructor on every
// NIC. build receives the node and must return that node's controller (or
// nil for direct injection).
func (n *Network) SetSourceController(build func(node topology.NodeID) SourceController) {
	for _, nic := range n.NICs {
		nic.Source = build(nic.ID)
	}
}

// injectPredictiveAcks is the GPA module's network half (§3.3.2, §3.4.1):
// originate one predictive ACK per contending flow, addressed to the flow's
// source, carrying the full contending set — copied into each ACK's own
// backing — and the reporting router. flows may be the shard's CFD
// scratch: injecting an ACK cannot rank again, because the chosen port's
// pump only departs a data packet when its link was idle with a VC ready,
// and no port is left in that state between events.
func (n *Network) injectPredictiveAcks(e *sim.Engine, from *outPort, flows []FlowKey, wait sim.Time) {
	r := n.Routers[from.router]
	sh := from.sh
	sh.Tracer.RouterEvent(e.Now(), telemetry.KindPredAck, int(from.router), int(from.port), int64(len(flows)))
	if sh.Rec != nil {
		sh.Rec.Record(telemetry.FlightEvent{
			AtNs: int64(e.Now()), Kind: telemetry.FlightPredAck,
			Router: int(from.router), Port: int(from.port), VC: -1,
			Val: int64(len(flows)),
		})
	}
	for _, f := range flows {
		ack := sh.newPacket()
		ack.Type = AckPacket
		ack.Src = f.Dst // lets the source attribute it to flow (f.Src -> f.Dst)
		ack.Dst = f.Src
		ack.SizeBytes = n.Cfg.AckBytes
		ack.CreatedAt = e.Now()
		ack.PathLatency = wait
		ack.MSPIndex = -1
		ack.Predictive = true
		ack.SetPredictiveHeader(topology.RouterID(from.router), flows)
		if r.injectAck(e, ack) {
			sh.predictiveAcksSent++
		} else {
			sh.predictiveAcksDropped++
			sh.releasePacket(ack)
		}
	}
}

// Drain runs the engine(s) until all queues empty or the horizon passes,
// returning the number of events executed. Useful for closing out a run so
// in-flight packets reach their sinks.
func (n *Network) Drain(horizon sim.Time) uint64 {
	if n.group != nil {
		return n.group.Run(horizon)
	}
	ran := n.Eng.Run(horizon)
	n.settleLinks(horizon)
	return ran
}

// settleLinks leaves the serial clock where it would stand had every
// link-free event been scheduled: such an event below the horizon fires
// even when it has nothing to start, and the last of them — the tail of the
// last packet leaving its link — is what a drained run's Elapsed reports.
// Links whose reserved key lies below the horizon are settled and the clock
// moves to the latest of them. (A shard group parks at the horizon anyway.)
func (n *Network) settleLinks(horizon sim.Time) {
	if n.Eng.NextEventTime() < horizon {
		return // stopped early: those keys are still ahead of the firing order
	}
	last := n.Eng.Now()
	n.eachPort(func(o *outPort) {
		if o.flags&portLazyFree != 0 && o.serEnd < horizon {
			o.flags &^= portLazyFree | portBusy
			if o.serEnd > last {
				last = o.serEnd
			}
		}
	})
	n.Eng.AdvanceTo(last)
}

// eachPort visits every output port: the routers' in (router, port) order,
// then the NIC injection ports.
func (n *Network) eachPort(visit func(*outPort)) {
	for _, rt := range n.Routers {
		for i := range rt.out {
			visit(&rt.out[i])
		}
	}
	for _, nic := range n.NICs {
		visit(nic.out)
	}
}

// PacketPoolStats reports the packet pools' lifetime activity across all
// shards: packets issued (counting record reuse) and the freelists'
// summed high-water mark (distinct records the run needed at once when
// idle).
func (n *Network) PacketPoolStats() (issued uint64, freePeak int) {
	for _, sh := range n.Shards {
		issued += sh.pktIssued
		freePeak += sh.pktFreePeak
	}
	return issued, freePeak
}

// TotalQueuedBytes sums buffered bytes across all router ports — a global
// congestion gauge used by tests.
func (n *Network) TotalQueuedBytes() int {
	total := 0
	n.eachPort(func(o *outPort) {
		if o.router >= 0 {
			total += int(o.queued)
		}
	})
	return total
}
