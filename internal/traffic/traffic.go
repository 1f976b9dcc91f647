// Package traffic generates the synthetic workloads of the paper's
// evaluation: the permutation benchmarks of Table 4.1 (bit reversal,
// perfect shuffle, matrix transpose), uniform random traffic, the
// strategically colliding hot-spot patterns of §4.5, and the bursty
// injection envelopes of §2.2.3 (Fig 2.6) that model compute/communicate
// application cycles.
package traffic

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Pattern maps each source node to a destination for the next message.
// Implementations may be deterministic permutations or stochastic.
type Pattern interface {
	Name() string
	// Destination returns the target for src, or -1 when src stays silent
	// under this pattern.
	Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID
}

// powerOfTwo reports whether n is a node count the bit permutations of
// Table 4.1 are defined on.
func powerOfTwo(n int) bool { return n > 1 && n&(n-1) == 0 }

// nodeBits returns log2(n), panicking unless n is a power of two — the
// permutations of Table 4.1 are defined on bit representations. ByName
// rejects such counts with an error; the panic is the invariant check for
// hand-built pattern literals.
func nodeBits(n int) int {
	if !powerOfTwo(n) {
		panic(fmt.Sprintf("traffic: permutation patterns need a power-of-two node count, got %d", n))
	}
	return bits.TrailingZeros(uint(n))
}

// BitReversal is d_i = s_(n-1-i) (Table 4.1).
type BitReversal struct{ Nodes int }

// Name implements Pattern.
func (p BitReversal) Name() string { return "bitreversal" }

// Destination implements Pattern.
func (p BitReversal) Destination(src topology.NodeID, _ *sim.RNG) topology.NodeID {
	n := nodeBits(p.Nodes)
	s := uint(src)
	var d uint
	for i := 0; i < n; i++ {
		d |= ((s >> i) & 1) << (n - 1 - i)
	}
	return topology.NodeID(d)
}

// PerfectShuffle is d_i = s_((i-1) mod n): a rotate-left by one (Table 4.1).
type PerfectShuffle struct{ Nodes int }

// Name implements Pattern.
func (p PerfectShuffle) Name() string { return "shuffle" }

// Destination implements Pattern.
func (p PerfectShuffle) Destination(src topology.NodeID, _ *sim.RNG) topology.NodeID {
	n := nodeBits(p.Nodes)
	s := uint(src)
	mask := uint(p.Nodes - 1)
	return topology.NodeID(((s << 1) | (s >> (n - 1))) & mask)
}

// MatrixTranspose is d_i = s_((i+n/2) mod n): a rotate by half the bits
// (Table 4.1), the transpose of the logical sqrt(N) x sqrt(N) matrix.
type MatrixTranspose struct{ Nodes int }

// Name implements Pattern.
func (p MatrixTranspose) Name() string { return "transpose" }

// Destination implements Pattern.
func (p MatrixTranspose) Destination(src topology.NodeID, _ *sim.RNG) topology.NodeID {
	n := nodeBits(p.Nodes)
	half := n / 2
	s := uint(src)
	mask := uint(p.Nodes - 1)
	return topology.NodeID(((s >> half) | (s << (n - half))) & mask)
}

// Uniform draws a uniformly random destination different from the source.
type Uniform struct{ Nodes int }

// Name implements Pattern.
func (p Uniform) Name() string { return "uniform" }

// Destination implements Pattern.
func (p Uniform) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	if p.Nodes < 2 {
		return -1
	}
	d := topology.NodeID(rng.Intn(p.Nodes - 1))
	if d >= src {
		d++
	}
	return d
}

// HotSpot sends a fixed set of flows (§4.5: paths "strategically defined so
// that they collide"); sources outside the set stay silent.
type HotSpot struct {
	Flows map[topology.NodeID]topology.NodeID
}

// NewHotSpot builds a hot-spot pattern from explicit src->dst pairs.
func NewHotSpot(pairs map[topology.NodeID]topology.NodeID) *HotSpot {
	return &HotSpot{Flows: pairs}
}

// Name implements Pattern.
func (p *HotSpot) Name() string { return "hotspot" }

// Destination implements Pattern.
func (p *HotSpot) Destination(src topology.NodeID, _ *sim.RNG) topology.NodeID {
	if d, ok := p.Flows[src]; ok {
		return d
	}
	return -1
}

// Fixed is a full explicit permutation table (used by trace-derived
// patterns and tests). Entries of -1 keep a source silent.
type Fixed struct {
	Label string
	Dst   []topology.NodeID
}

// Name implements Pattern.
func (p *Fixed) Name() string { return p.Label }

// Destination implements Pattern.
func (p *Fixed) Destination(src topology.NodeID, _ *sim.RNG) topology.NodeID {
	if int(src) >= len(p.Dst) {
		return -1
	}
	return p.Dst[src]
}

// ByName builds a Table 4.1 pattern for the given node count:
// "shuffle", "bitreversal", "transpose", "uniform". The three bit
// permutations need a power-of-two node count.
func ByName(name string, nodes int) (Pattern, error) {
	var p Pattern
	switch name {
	case "uniform":
		return Uniform{Nodes: nodes}, nil
	case "shuffle":
		p = PerfectShuffle{Nodes: nodes}
	case "bitreversal":
		p = BitReversal{Nodes: nodes}
	case "transpose":
		p = MatrixTranspose{Nodes: nodes}
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
	if !powerOfTwo(nodes) {
		return nil, fmt.Errorf("traffic: pattern %q needs a power-of-two node count, got %d", name, nodes)
	}
	return p, nil
}

// Spec schedules open-loop packet injection: every participating node sends
// PacketBytes-sized messages to its pattern destination at RateBps from
// Start to End (exclusive).
type Spec struct {
	Pattern     Pattern
	RateBps     float64
	PacketBytes int
	Start, End  sim.Time
	// Nodes restricts the injecting sources; nil = all terminals.
	Nodes []topology.NodeID
	// Jitter adds exponential spacing noise (Poisson-like arrivals) instead
	// of a fixed interval.
	Jitter bool
	// MPIType tags the injected messages (defaults to MPISend).
	MPIType uint8
}

// interval returns the mean packet spacing for the spec.
func (s *Spec) interval() sim.Time {
	return sim.Time(float64(s.PacketBytes) * 8 * 1e9 / s.RateBps)
}

// Install schedules the spec's injection on the network: a train of one
// phase (see installTrain). Each node gets an independent RNG stream
// derived from rng, plus a phase offset so sources do not inject in
// lockstep.
func Install(net *network.Network, spec Spec, rng *sim.RNG) {
	installTrain(net, []phase{newPhase(spec, rng.Uint64())})
}

// Burst describes one communication phase of a bursty application cycle
// (Fig 2.6): heavy pattern traffic for Len, then silence for Gap while the
// "application" computes.
type Burst struct {
	Pattern Pattern
	RateBps float64
	Len     sim.Time
	Gap     sim.Time
	// Nodes restricts the injecting sources (nil = all terminals).
	Nodes []topology.NodeID
}

// InstallBursts schedules count repetitions of the bursts starting at
// start as one train, returning the time the last burst ends. A fixed
// pattern across bursts is plain bursty traffic; varying patterns give
// "bursty with variable pattern" (Fig 2.6b).
func InstallBursts(net *network.Network, bursts []Burst, start sim.Time, count int, packetBytes int, rng *sim.RNG) sim.Time {
	phases, end := burstPhases(bursts, start, count, packetBytes, rng)
	installTrain(net, phases)
	return end
}

// burstPhases lays out count repetitions of the bursts from start, each
// phase with its own stream split off rng, and returns them with the time
// the last one ends.
func burstPhases(bursts []Burst, start sim.Time, count int, packetBytes int, rng *sim.RNG) ([]phase, sim.Time) {
	phases := make([]phase, max(count, 0))
	t := start
	for rep := range phases {
		b := bursts[rep%len(bursts)]
		phases[rep] = newPhase(Spec{
			Pattern:     b.Pattern,
			RateBps:     b.RateBps,
			PacketBytes: packetBytes,
			Start:       t,
			End:         t + b.Len,
			Nodes:       b.Nodes,
		}, rng.Split(uint64(rep)+0xb0).Uint64())
		t += b.Len + b.Gap
	}
	return phases, t
}

// phase is one injection window of a train: its spec, the mean packet
// spacing and the base draw its per-node streams derive from.
type phase struct {
	spec Spec     // MPIType defaulted
	iv   sim.Time // mean packet spacing
	base uint64
}

// newPhase checks spec — callers validate user input; these panics are
// invariant checks — and pairs it with its base draw.
func newPhase(spec Spec, base uint64) phase {
	if !(spec.RateBps > 0) || spec.PacketBytes <= 0 {
		panic("traffic: spec needs positive rate and packet size")
	}
	if spec.End <= spec.Start {
		panic("traffic: empty injection window")
	}
	if spec.MPIType == 0 {
		spec.MPIType = network.MPISend
	}
	return phase{spec: spec, iv: spec.interval(), base: base}
}

// size returns the number of the phase's sources.
func (p *phase) size(net *network.Network) int {
	if p.spec.Nodes == nil {
		return net.Topo.NumTerminals()
	}
	return len(p.spec.Nodes)
}

// node returns the phase's i-th source.
func (p *phase) node(i int) topology.NodeID {
	if p.spec.Nodes == nil {
		return topology.NodeID(i)
	}
	return p.spec.Nodes[i]
}

// start seeds r as node's stream and returns node's first injection time.
// The stream derives from the node id only, so the schedule does not
// depend on the iteration order of the nodes; its first draw spreads the
// start phases across one interval.
func (p *phase) start(r *sim.RNG, node topology.NodeID) sim.Time {
	r.Seed(p.base ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
	return p.spec.Start + sim.Time(r.Float64()*float64(p.iv))
}

// train is a sequence of phases installed at once but built one phase at
// a time. Installing every source of every phase up front would keep one
// actor, one stream and one pending event per phase and node alive from
// set-up on. Instead the train reserves, on each engine, the sequence
// numbers the sources' first events would take if they were scheduled at
// installation, in the same order, and notes per phase and engine the
// earliest of those first-event keys. An opener fires under that key: it
// is that source's first event (see lane.HandleEvent), so no event is
// added, dropped or re-keyed, and the firing order, Processed and every
// engine's final Seq stay those of installing everything eagerly. Each
// engine holds one pending opener at a time: an opener schedules the
// engine's next one, whose key lies after its own.
type train struct {
	net    *network.Network
	phases []phase
	lanes  []lane // one per engine, in shard order
}

// lane is one engine's share of a train, and the actor of its openers.
type lane struct {
	t   *train
	eng *sim.Engine
	// open lists the phases with sources on this engine in key order;
	// next indexes the opener to fire next.
	open []opener
	next int
	// gen is the most recent phase built on this lane. The next phase
	// reuses it and its source slab once all of its sources have stopped,
	// which depends only on the firing order.
	gen *patternGen
}

// opener is where one phase starts on one lane.
type opener struct {
	at  sim.Time // the earliest first injection of the phase's sources here
	seq uint64   // the first of the n sequence numbers reserved for them
	// first is the index, among the phase's sources on this lane, of the
	// source whose first event is keyed (at, seq+first).
	phase, first, n int32
}

// key returns the opener's event key.
func (op *opener) key() (sim.Time, uint64) { return op.at, op.seq + uint64(op.first) }

// installTrain reserves the first-event keys of every phase's sources and
// schedules each engine's first opener.
func installTrain(net *network.Network, phases []phase) {
	if len(phases) == 0 {
		return
	}
	t := &train{net: net, phases: phases, lanes: make([]lane, len(net.Shards))}
	// One opener per lane and phase, lane-major; each lane keeps those of
	// its phases that have sources on it.
	open := make([]opener, len(t.lanes)*len(phases))
	for l := range t.lanes {
		t.lanes[l] = lane{t: t, eng: net.Shards[l].Eng, open: open[l*len(phases):][:len(phases)]}
	}
	var r sim.RNG
	for p := range phases {
		ph := &phases[p]
		for i, n := 0, ph.size(net); i < n; i++ {
			node := ph.node(i)
			l := t.laneOf(net.EngineForNode(node))
			// Only this loop reserves on the engines, so a phase's
			// sources on one lane take consecutive sequence numbers.
			seq := l.eng.ReserveSeq()
			at := ph.start(&r, node)
			switch op := &l.open[p]; {
			case op.n == 0:
				*op = opener{at: at, seq: seq, phase: int32(p), n: 1}
			case at < op.at:
				op.at, op.first = at, op.n
				op.n++
			default:
				op.n++
			}
		}
	}
	for l := range t.lanes {
		ln := &t.lanes[l]
		ln.open = slices.DeleteFunc(ln.open, func(op opener) bool { return op.n == 0 })
		// Phases open in phase order unless a burst is shorter than the
		// spread of the next one's start phases.
		slices.SortFunc(ln.open, func(a, b opener) int {
			at, as := a.key()
			bt, bs := b.key()
			return cmp.Or(cmp.Compare(at, bt), cmp.Compare(as, bs))
		})
		ln.scheduleNext()
	}
}

// laneOf returns eng's lane.
func (t *train) laneOf(eng *sim.Engine) *lane {
	for i := range t.lanes {
		if t.lanes[i].eng == eng {
			return &t.lanes[i]
		}
	}
	panic("traffic: node engine outside the network's shards")
}

// scheduleNext schedules the lane's next opener, if any, under its key.
func (l *lane) scheduleNext() {
	if l.next < len(l.open) {
		at, seq := l.open[l.next].key()
		l.eng.ScheduleReserved(at, seq, l, 0, 0)
	}
}

// HandleEvent fires the lane's next opener: it builds the phase's sources
// on this engine, schedules every other source's first event under its
// reserved key and the lane's next opener under its own, and runs the
// first event of the opener's source.
func (l *lane) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	t := l.t
	op := l.open[l.next]
	l.next++
	l.scheduleNext()
	ph := &t.phases[op.phase]
	g := l.gen
	if g == nil || g.live > 0 {
		g = &patternGen{net: t.net}
		l.gen = g
	}
	n := int(op.n)
	g.spec, g.iv, g.live = ph.spec, ph.iv, n
	if cap(g.sources) < n {
		g.sources = make([]patternSource, n)
	}
	g.sources = g.sources[:n]
	for i, k := 0, 0; k < n; i++ {
		node := ph.node(i)
		if t.net.EngineForNode(node) != l.eng {
			continue
		}
		s := &g.sources[k]
		s.g, s.node = g, node
		at := ph.start(&s.rng, node)
		if k != int(op.first) {
			e.ScheduleReserved(at, op.seq+uint64(k), s, 0, 0)
		}
		k++
	}
	g.sources[op.first].HandleEvent(e, 0, 0)
}

// patternGen is one phase's sources on one engine and what they share,
// read-only once they run.
type patternGen struct {
	net     *network.Network
	spec    Spec     // MPIType defaulted
	iv      sim.Time // mean packet spacing
	sources []patternSource
	// live counts the sources that have not stopped yet.
	live int
}

// patternSource is one node's open-loop injector: a typed actor whose one
// event is "send the next packet", so a phase's sources on an engine are
// one slab and their ticks allocate nothing.
type patternSource struct {
	g    *patternGen
	node topology.NodeID
	rng  sim.RNG
}

// HandleEvent implements sim.Actor.
func (s *patternSource) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	g := s.g
	if e.Now() >= g.spec.End {
		g.live--
		return
	}
	dst := g.spec.Pattern.Destination(s.node, &s.rng)
	if dst >= 0 && dst != s.node {
		g.net.NICs[s.node].Send(e, dst, g.spec.PacketBytes, g.spec.MPIType, 0)
	}
	next := g.iv
	if g.spec.Jitter {
		next = max(1, sim.Time(s.rng.Exp(float64(g.iv))))
	}
	e.AfterEvent(next, s, 0, 0)
}
