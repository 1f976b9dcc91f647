// Heavy-tailed datacenter workloads: empirical flow-size distributions,
// ON/OFF bursty arrival processes and rack/group locality skew. These are
// the traffic shapes under which path-distribution policies separate —
// uniform fixed-size injection hides exactly the transient hot spots
// PR-DRB exists to absorb.
package traffic

import (
	"fmt"
	"math"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// FlowSizeCDF is an empirical flow-size distribution given as ascending
// (bytes, cumulative probability) points. Sampling inverts the CDF with
// log-linear interpolation between points, the standard treatment for the
// published datacenter flow traces whose sizes span five decades.
type FlowSizeCDF struct {
	Label string
	Bytes []float64
	Cum   []float64
}

// NewFlowSizeCDF validates and builds a distribution. Points must be
// strictly ascending in both coordinates and end at probability 1.
func NewFlowSizeCDF(label string, bytes, cum []float64) *FlowSizeCDF {
	if len(bytes) == 0 || len(bytes) != len(cum) {
		panic("traffic: flow-size CDF needs matching non-empty point lists")
	}
	for i := range bytes {
		if bytes[i] <= 0 || cum[i] <= 0 || cum[i] > 1 {
			panic(fmt.Sprintf("traffic: bad CDF point (%g, %g)", bytes[i], cum[i]))
		}
		if i > 0 && (bytes[i] <= bytes[i-1] || cum[i] <= cum[i-1]) {
			panic(fmt.Sprintf("traffic: CDF points not ascending at %d", i))
		}
	}
	if cum[len(cum)-1] != 1 {
		panic("traffic: CDF must end at probability 1")
	}
	return &FlowSizeCDF{Label: label, Bytes: bytes, Cum: cum}
}

// WebSearchCDF is the web-search-style distribution: mostly tens of
// kilobytes with a heavy tail into the tens of megabytes.
func WebSearchCDF() *FlowSizeCDF {
	return NewFlowSizeCDF("websearch",
		[]float64{6e3, 13e3, 19e3, 33e3, 53e3, 133e3, 667e3, 1.3e6, 6.7e6, 20e6},
		[]float64{0.15, 0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 0.95, 0.98, 1.0})
}

// DataMiningCDF is the data-mining-style distribution: a majority of tiny
// control flows with an extreme elephant tail.
func DataMiningCDF() *FlowSizeCDF {
	return NewFlowSizeCDF("datamining",
		[]float64{100, 1e3, 10e3, 100e3, 1e6, 10e6, 30e6},
		[]float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 1.0})
}

// CacheCDF is a small-object key-value-style distribution, useful where
// smokes need heavy-tail shape without megabyte elephants.
func CacheCDF() *FlowSizeCDF {
	return NewFlowSizeCDF("cache",
		[]float64{512, 1e3, 2e3, 4e3, 16e3, 64e3},
		[]float64{0.30, 0.55, 0.75, 0.90, 0.98, 1.0})
}

// CDFByName resolves the built-in distributions: "websearch",
// "datamining", "cache".
func CDFByName(name string) (*FlowSizeCDF, error) {
	switch name {
	case "websearch":
		return WebSearchCDF(), nil
	case "datamining":
		return DataMiningCDF(), nil
	case "cache":
		return CacheCDF(), nil
	}
	return nil, fmt.Errorf("traffic: unknown flow-size CDF %q", name)
}

// Truncate returns a copy of the distribution clipped to maxBytes: the
// tail mass above the cap collapses onto the cap. Lets experiments keep
// the published shape while bounding worst-case message cost.
func (c *FlowSizeCDF) Truncate(maxBytes float64) *FlowSizeCDF {
	if maxBytes >= c.Bytes[len(c.Bytes)-1] {
		return c
	}
	out := &FlowSizeCDF{Label: fmt.Sprintf("%s-cap%d", c.Label, int(maxBytes))}
	for i := range c.Bytes {
		if c.Bytes[i] >= maxBytes {
			break
		}
		out.Bytes = append(out.Bytes, c.Bytes[i])
		out.Cum = append(out.Cum, c.Cum[i])
	}
	out.Bytes = append(out.Bytes, maxBytes)
	out.Cum = append(out.Cum, 1)
	return out
}

// Sample draws a flow size in bytes by inverse-transform sampling with
// log-linear interpolation between CDF points.
func (c *FlowSizeCDF) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	if u <= c.Cum[0] {
		return int(c.Bytes[0])
	}
	for i := 1; i < len(c.Cum); i++ {
		if u <= c.Cum[i] {
			frac := (u - c.Cum[i-1]) / (c.Cum[i] - c.Cum[i-1])
			lo, hi := math.Log(c.Bytes[i-1]), math.Log(c.Bytes[i])
			return int(math.Exp(lo + frac*(hi-lo)))
		}
	}
	return int(c.Bytes[len(c.Bytes)-1])
}

// Quantile returns the flow size at cumulative probability p under the
// same log-linear interpolation Sample uses — the inverse CDF evaluated
// deterministically. Used to derive flow-class thresholds (mice/elephant
// cutoffs) from the installed distribution.
func (c *FlowSizeCDF) Quantile(p float64) int64 {
	if p <= c.Cum[0] {
		return int64(c.Bytes[0])
	}
	for i := 1; i < len(c.Cum); i++ {
		if p <= c.Cum[i] {
			frac := (p - c.Cum[i-1]) / (c.Cum[i] - c.Cum[i-1])
			lo, hi := math.Log(c.Bytes[i-1]), math.Log(c.Bytes[i])
			return int64(math.Exp(lo + frac*(hi-lo)))
		}
	}
	return int64(c.Bytes[len(c.Bytes)-1])
}

// Mean returns the distribution mean under the same log-linear
// interpolation Sample uses (numerically, per segment), for converting a
// target offered load into a flow arrival rate.
func (c *FlowSizeCDF) Mean() float64 {
	mean := c.Cum[0] * c.Bytes[0]
	const steps = 64
	for i := 1; i < len(c.Cum); i++ {
		p := c.Cum[i] - c.Cum[i-1]
		lo, hi := math.Log(c.Bytes[i-1]), math.Log(c.Bytes[i])
		seg := 0.0
		for s := 0; s < steps; s++ {
			frac := (float64(s) + 0.5) / steps
			seg += math.Exp(lo + frac*(hi-lo))
		}
		mean += p * seg / steps
	}
	return mean
}

// GroupLocal skews destinations toward the source's own group (rack, or a
// dragonfly group): with probability PLocal the target is a uniformly
// random other member of the source's group, otherwise a uniformly random
// node outside it. This is the rack-locality profile of datacenter traces,
// and on hierarchical topologies it concentrates the non-local remainder
// onto the scarce global links.
type GroupLocal struct {
	Nodes     int
	GroupSize int
	PLocal    float64
}

// NewGroupLocal validates and builds the pattern. GroupSize must divide
// into at least two groups for the remote branch to have any targets.
func NewGroupLocal(nodes, groupSize int, pLocal float64) GroupLocal {
	if groupSize < 2 || nodes <= groupSize {
		panic(fmt.Sprintf("traffic: group-local pattern needs 2 <= groupSize < nodes, got %d/%d", groupSize, nodes))
	}
	if pLocal < 0 || pLocal > 1 {
		panic(fmt.Sprintf("traffic: pLocal %g out of [0,1]", pLocal))
	}
	return GroupLocal{Nodes: nodes, GroupSize: groupSize, PLocal: pLocal}
}

// Name implements Pattern.
func (p GroupLocal) Name() string { return "grouplocal" }

// Destination implements Pattern.
func (p GroupLocal) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	group := int(src) / p.GroupSize
	lo := group * p.GroupSize
	hi := lo + p.GroupSize
	if hi > p.Nodes {
		hi = p.Nodes
	}
	if rng.Float64() < p.PLocal {
		d := lo + rng.Intn(hi-lo-1)
		if d >= int(src) {
			d++
		}
		return topology.NodeID(d)
	}
	remote := p.Nodes - (hi - lo)
	if remote <= 0 {
		return -1
	}
	d := rng.Intn(remote)
	if d >= lo {
		d += hi - lo
	}
	return topology.NodeID(d)
}

// HeavyTail schedules an ON/OFF flow-level workload: while ON, each node
// starts flows as a Poisson process at FlowRate, every flow sized by an
// independent draw from Sizes and sent as one message (the NIC fragments
// it); OFF periods are silent. ON and OFF durations are exponential with
// the given means, so the aggregate is bursty at both the flow and the
// arrival-process timescale.
type HeavyTail struct {
	Pattern Pattern
	Sizes   *FlowSizeCDF
	// FlowRate is mean flow arrivals per second per node while ON.
	FlowRate float64
	// OnMean/OffMean are mean ON and OFF durations. OffMean 0 keeps
	// sources always on (pure Poisson flow arrivals).
	OnMean, OffMean sim.Time
	Start, End      sim.Time
	// MPIType tags the injected messages (defaults to MPISend).
	MPIType uint8
}

// InstallHeavyTail schedules the workload on the network. Determinism
// follows the Install contract exactly: one base draw from rng, then
// per-node streams derived from the node id alone and events scheduled on
// each node's own shard engine, so the realized workload is byte-identical
// across shard counts and GOMAXPROCS settings.
func InstallHeavyTail(net *network.Network, spec HeavyTail, rng *sim.RNG) {
	if spec.FlowRate <= 0 {
		panic("traffic: heavy-tail spec needs a positive flow rate")
	}
	if spec.Sizes == nil {
		panic("traffic: heavy-tail spec needs a flow-size CDF")
	}
	if spec.OnMean <= 0 {
		panic("traffic: heavy-tail spec needs a positive ON duration")
	}
	if spec.End <= spec.Start {
		panic("traffic: empty injection window")
	}
	if spec.MPIType == 0 {
		spec.MPIType = network.MPISend
	}
	g := &heavyTailGen{net: net, spec: spec, ivf: 1e9 / spec.FlowRate}
	base := rng.Uint64()
	sources := make([]heavyTailSource, net.Topo.NumTerminals())
	for i := range sources {
		node := topology.NodeID(i)
		s := &sources[i]
		*s = heavyTailSource{g: g, node: node}
		s.rng.Seed(base ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
		// Spread cycle phases across one mean flow interval so sources do
		// not all burst in lockstep at Start.
		first := spec.Start + sim.Time(s.rng.Float64()*g.ivf)
		net.EngineForNode(node).ScheduleEvent(first, s, htCycle, 0)
	}
}

// heavyTailGen is what the sources of one InstallHeavyTail call share,
// read-only once they run (they run on every shard's goroutine).
type heavyTailGen struct {
	net  *network.Network
	spec HeavyTail // MPIType defaulted
	ivf  float64   // mean ns between flow starts while ON
}

// heavyTailSource is one node's ON/OFF generator: a typed actor (a flow
// start and a cycle start are its two event kinds) whose whole state is
// here, so a run's sources are one allocation and scheduling their events
// allocates nothing.
type heavyTailSource struct {
	g     *heavyTailGen
	node  topology.NodeID
	rng   sim.RNG  // by value: the slab holds every source's stream
	onEnd sim.Time // end of the current ON period
}

const (
	htFlow uint8 = iota
	htCycle
)

// HandleEvent implements sim.Actor.
func (s *heavyTailSource) HandleEvent(e *sim.Engine, kind uint8, _ uint64) {
	spec := &s.g.spec
	if e.Now() >= spec.End {
		return
	}
	if kind == htFlow {
		s.flow(e)
		return
	}
	// A cycle: draw the ON period, start its flows now, and meet again
	// after the OFF period that follows it.
	on := s.expTime(float64(spec.OnMean))
	s.onEnd = e.Now() + on
	s.flow(e)
	gap := on
	if spec.OffMean > 0 {
		gap += s.expTime(float64(spec.OffMean))
	}
	e.AfterEvent(gap, s, htCycle, 0)
}

// expTime draws an exponential duration of the given mean, at least 1 ns.
func (s *heavyTailSource) expTime(mean float64) sim.Time {
	return max(1, sim.Time(s.rng.Exp(mean)))
}

// flow starts one flow and schedules the next, while the ON period lasts.
func (s *heavyTailSource) flow(e *sim.Engine) {
	g := s.g
	if e.Now() >= s.onEnd {
		return
	}
	dst := g.spec.Pattern.Destination(s.node, &s.rng)
	if dst >= 0 && dst != s.node {
		g.net.NICs[s.node].Send(e, dst, g.spec.Sizes.Sample(&s.rng), g.spec.MPIType, 0)
	}
	e.AfterEvent(s.expTime(g.ivf), s, htFlow, 0)
}
