// Package routing implements the router-side routing policies the paper
// evaluates PR-DRB against (§4.8.4): Deterministic, Random, Cyclic-priority
// and minimal Adaptive, plus the waypoint-honouring policy the DRB family
// rides on. All policies are implemented over the topology's minimal-route
// primitives, so each is deadlock-free for the same reason the baseline
// routing is (XY order on meshes, up*/down* on trees).
package routing

import (
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// waypointPort resolves the port for a packet that still targets an MSP
// waypoint; ok is false when the packet is in its final segment.
func waypointPort(r *network.Router, pkt *network.Packet) (int, bool) {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target), true
	}
	return 0, false
}

// UpPorts is the link-health predicate of the routing layer: it filters a
// minimal-port candidate set down to ports whose links are in service. When
// every candidate is dead it returns the original set — the packet then
// queues at a dead port instead of being misrouted, keeping each policy's
// minimality (and so its deadlock-freedom argument) intact. On a fabric
// where no link has ever failed the input is the answer.
func UpPorts(r *network.Router, ports []int) []int {
	if r.Net().FaultEpoch() == 0 {
		return ports
	}
	for i, p := range ports {
		if !r.PortUp(p) {
			// First dead port found: build the filtered copy from here.
			up := append(make([]int, 0, len(ports)-1), ports[:i]...)
			for _, q := range ports[i+1:] {
				if r.PortUp(q) {
					up = append(up, q)
				}
			}
			if len(up) == 0 {
				return ports
			}
			return up
		}
	}
	return ports
}

// HealthyMinimalPorts returns the live minimal ports at r toward dst,
// falling back to the full minimal set when the failure cut them all off.
// It reads the router's private route memo, so concurrent shards deciding
// at different routers never share state.
func HealthyMinimalPorts(r *network.Router, dst topology.NodeID) []int {
	return UpPorts(r, r.MinimalPorts(dst))
}

// Deterministic always follows the topology's baseline deterministic
// minimal route (§2.1.4 "deterministic"); waypoints, if present, are
// honoured segment by segment, which is what the DRB family needs from the
// fabric.
type Deterministic struct{}

// Name implements network.RouterPolicy.
func (Deterministic) Name() string { return "deterministic" }

// OutputPort implements network.RouterPolicy.
func (Deterministic) OutputPort(r *network.Router, pkt *network.Packet) int {
	if p, ok := waypointPort(r, pkt); ok {
		return p
	}
	return r.NextHop(pkt.Dst)
}

// Random is the oblivious random policy: among the minimal ports toward the
// destination, pick uniformly at random (§2.1.4 "oblivious").
type Random struct {
	rng *sim.RNG
}

// NewRandom builds a Random policy with its own RNG stream.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.NewRNG(seed ^ 0x5ca1ab1e)} }

// Name implements network.RouterPolicy.
func (p *Random) Name() string { return "random" }

// OutputPort implements network.RouterPolicy.
func (p *Random) OutputPort(r *network.Router, pkt *network.Packet) int {
	if port, ok := waypointPort(r, pkt); ok {
		return port
	}
	ports := HealthyMinimalPorts(r, pkt.Dst)
	return ports[p.rng.Intn(len(ports))]
}

// Cyclic is the cyclic-priority policy of §4.8.4: minimal ports are used in
// round-robin order per router, spreading successive packets regardless of
// load. State is one counter per router, indexed by router ID, so routers
// on different shards never touch the same counter.
type Cyclic struct {
	next []int
}

// NewCyclicSized builds a Cyclic policy with a zeroed counter for each of
// the fabric's routers.
func NewCyclicSized(routers int) *Cyclic { return &Cyclic{next: make([]int, routers)} }

// Name implements network.RouterPolicy.
func (p *Cyclic) Name() string { return "cyclic" }

// OutputPort implements network.RouterPolicy.
func (p *Cyclic) OutputPort(r *network.Router, pkt *network.Packet) int {
	if port, ok := waypointPort(r, pkt); ok {
		return port
	}
	ports := HealthyMinimalPorts(r, pkt.Dst)
	i := p.next[r.ID] % len(ports)
	p.next[r.ID] = i + 1
	return ports[i]
}

// Adaptive is minimal adaptive routing: among the minimal ports, pick the
// least-occupied output buffer (§2.1.4 "adaptive algorithms take into
// consideration the status of the network"). Ties break deterministically
// toward the baseline port.
type Adaptive struct{}

// Name implements network.RouterPolicy.
func (Adaptive) Name() string { return "adaptive" }

// OutputPort implements network.RouterPolicy.
func (Adaptive) OutputPort(r *network.Router, pkt *network.Packet) int {
	if p, ok := waypointPort(r, pkt); ok {
		return p
	}
	ports := HealthyMinimalPorts(r, pkt.Dst)
	if len(ports) == 1 {
		return ports[0]
	}
	best, bestLoad := -1, 0
	base := r.NextHop(pkt.Dst)
	for _, p := range ports {
		l := r.OutLoad(p)
		// Ties break deterministically toward the baseline port.
		if best < 0 || l < bestLoad || (l == bestLoad && p == base && best != base) {
			best, bestLoad = p, l
		}
	}
	return best
}

// RandomPerRouter is the sharded variant of Random: one RNG stream per
// router, so concurrent shards never contend on a shared generator and a
// router's draw sequence depends only on (seed, router), not on the global
// interleaving of routing decisions. That is what makes random routing
// deterministic under parallel execution — and identical across shard
// counts and GOMAXPROCS for a fixed seed.
type RandomPerRouter struct {
	rngs []*sim.RNG
}

// NewRandomPerRouter builds per-router RNG streams for the given router
// count, each derived from seed and the router ID.
func NewRandomPerRouter(seed uint64, routers int) *RandomPerRouter {
	p := &RandomPerRouter{rngs: make([]*sim.RNG, routers)}
	for i := range p.rngs {
		p.rngs[i] = sim.NewRNG(seed ^ 0x5ca1ab1e ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	}
	return p
}

// Name implements network.RouterPolicy.
func (p *RandomPerRouter) Name() string { return "random" }

// OutputPort implements network.RouterPolicy.
func (p *RandomPerRouter) OutputPort(r *network.Router, pkt *network.Packet) int {
	if port, ok := waypointPort(r, pkt); ok {
		return port
	}
	ports := HealthyMinimalPorts(r, pkt.Dst)
	return ports[p.rngs[r.ID].Intn(len(ports))]
}

// ByName returns the named baseline policy for a fabric of the given
// router count, or nil for an unknown name; seed feeds the stochastic
// policies. Only random's state is not per-router: sharded gives it a
// stream per router, while serial runs keep one stream, so historical RNG
// consumption (and with it the committed goldens) is untouched.
func ByName(name string, seed uint64, routers int, sharded bool) network.RouterPolicy {
	switch name {
	case "deterministic":
		return Deterministic{}
	case "random":
		if sharded {
			return NewRandomPerRouter(seed, routers)
		}
		return NewRandom(seed)
	case "cyclic":
		return NewCyclicSized(routers)
	case "adaptive":
		return Adaptive{}
	}
	return nil
}
