// Package traffic generates the synthetic workloads of the paper's
// evaluation: the permutation benchmarks of Table 4.1 (bit reversal,
// perfect shuffle, matrix transpose), uniform random traffic, the
// strategically colliding hot-spot patterns of §4.5, and the bursty
// injection envelopes of §2.2.3 (Fig 2.6) that model compute/communicate
// application cycles.
package traffic

import (
	"fmt"
	"math/bits"

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

// Install schedules the spec's injection events on the network. Each node
// gets an independent RNG stream derived from rng, plus a phase offset so
// sources do not inject in lockstep.
func Install(net *network.Network, spec Spec, rng *sim.RNG) {
	if spec.RateBps <= 0 || spec.PacketBytes <= 0 {
		panic("traffic: spec needs positive rate and packet size")
	}
	if spec.End <= spec.Start {
		panic("traffic: empty injection window")
	}
	if spec.MPIType == 0 {
		spec.MPIType = network.MPISend
	}
	n := len(spec.Nodes)
	if spec.Nodes == nil {
		n = net.Topo.NumTerminals()
	}
	g := &patternGen{net: net, spec: spec, iv: spec.interval()}
	// One base draw, then per-node streams derived from the node id only:
	// the schedule must not depend on the iteration order of the nodes.
	base := rng.Uint64()
	// Actors and streams in a slice each: two allocations for the run.
	sources := make([]patternSource, n)
	rngs := make([]sim.RNG, n)
	for i := range sources {
		node := topology.NodeID(i)
		if spec.Nodes != nil {
			node = spec.Nodes[i]
		}
		s := &sources[i]
		*s = patternSource{g: g, node: node, rng: &rngs[i]}
		s.rng.Seed(base ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
		// Spread start phases across one interval. Each source schedules on
		// its own node's engine: in sharded runs the ticks stay shard-local
		// (injection schedules depend only on the node id, never on the
		// shard layout).
		first := spec.Start + sim.Time(s.rng.Float64()*float64(g.iv))
		net.EngineForNode(node).ScheduleEvent(first, s, 0, 0)
	}
}

// patternGen is what the sources of one Install call share, read-only once
// they run (they run on every shard's goroutine).
type patternGen struct {
	net  *network.Network
	spec Spec     // MPIType defaulted
	iv   sim.Time // mean packet spacing
}

// patternSource is one node's open-loop injector: a typed actor whose one
// event is "send the next packet", so a run's sources are one allocation
// and their ticks allocate nothing.
type patternSource struct {
	g    *patternGen
	node topology.NodeID
	rng  *sim.RNG
}

// HandleEvent implements sim.Actor.
func (s *patternSource) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	g := s.g
	if e.Now() >= g.spec.End {
		return
	}
	dst := g.spec.Pattern.Destination(s.node, s.rng)
	if dst >= 0 && dst != s.node {
		g.net.NICs[s.node].Send(e, dst, g.spec.PacketBytes, g.spec.MPIType, 0)
	}
	next := g.iv
	if g.spec.Jitter {
		next = max(1, sim.Time(s.rng.Exp(float64(g.iv))))
	}
	e.AfterEvent(next, s, 0, 0)
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

// InstallBursts schedules count repetitions of the burst starting at start,
// returning the time the last burst ends. A fixed pattern across bursts is
// plain bursty traffic; varying patterns give "bursty with variable
// pattern" (Fig 2.6b).
func InstallBursts(net *network.Network, bursts []Burst, start sim.Time, count int, packetBytes int, rng *sim.RNG) sim.Time {
	t := start
	for rep := 0; rep < count; rep++ {
		b := bursts[rep%len(bursts)]
		Install(net, Spec{
			Pattern:     b.Pattern,
			RateBps:     b.RateBps,
			PacketBytes: packetBytes,
			Start:       t,
			End:         t + b.Len,
			Nodes:       b.Nodes,
		}, rng.Split(uint64(rep)+0xb0))
		t += b.Len + b.Gap
	}
	return t
}
