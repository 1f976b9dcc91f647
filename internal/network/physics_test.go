package network_test

import (
	"fmt"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// zeroLoadGap separates the oracle's packets: each one and its ACK have
// left the fabric before the next is sent, so every packet crosses an
// empty fabric.
const zeroLoadGap = 5 * sim.Microsecond

// pairSender sends pair arg's one packet from its NIC.
type pairSender struct {
	net   *network.Network
	pairs [][2]topology.NodeID
	size  int
}

func (s *pairSender) HandleEvent(e *sim.Engine, _ uint8, arg uint64) {
	p := s.pairs[arg]
	s.net.NICs[p[0]].Send(e, p[1], s.size, 0, uint32(arg))
}

// zeroLoadLatency is the closed form of DESIGN §3 and network.Config for
// one packet on an empty minimal path through routers routers: each of the
// routers+1 links adds its propagation delay and, under virtual
// cut-through, the header's serialization; each router adds its routing
// delay. Nothing waits in a queue.
func zeroLoadLatency(cfg network.Config, routers int) sim.Time {
	return sim.Time(routers+1)*(cfg.SerializationTime(cfg.HeaderBytes)+cfg.LinkDelay) + sim.Time(routers)*cfg.RoutingDelay
}

// zeroLoadMismatches sends one 1024-byte packet for each of pairs, one at
// a time, through spec's fabric built from run under policy on the given
// shard count, and returns a line for every pair whose latency differs from
// the closed form for the oracle config, or whose header accumulated any
// contention latency (Eq 3.3).
func zeroLoadMismatches(t *testing.T, spec string, policy runner.Policy, shards int, run, oracle network.Config, pairs [][2]topology.NodeID) []string {
	t.Helper()
	topo, err := topology.ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runner.New(runner.Experiment{Topology: topo, Policy: policy, Seed: 1, Shards: shards, Network: &run})
	if err != nil {
		t.Fatal(err)
	}
	got, contention := make([]sim.Time, len(pairs)), make([]sim.Time, len(pairs))
	for i := range got {
		got[i] = -1
	}
	network.TapArrivals(s.Net, func(pkt *network.Packet) { contention[pkt.MPISeq] += pkt.PathLatency })
	for _, nic := range s.Net.NICs {
		nic.OnMessage = func(e *sim.Engine, _ topology.NodeID, _ uint64, _ int, _ uint8, seq uint32) {
			got[seq] = e.Now() - sim.Time(seq+1)*zeroLoadGap
		}
	}
	sender := &pairSender{s.Net, pairs, run.PacketBytes}
	for i, p := range pairs {
		s.Net.EngineForNode(p[0]).ScheduleEvent(sim.Time(i+1)*zeroLoadGap, sender, 0, uint64(i))
	}
	s.Execute(sim.Time(len(pairs)+2) * zeroLoadGap)
	var bad []string
	for i, p := range pairs {
		ra, _ := topo.TerminalAttach(p[0])
		rb, _ := topo.TerminalAttach(p[1])
		routers := topo.Distance(ra, rb) + 1
		if want := zeroLoadLatency(oracle, routers); got[i] != want || contention[i] != 0 {
			bad = append(bad, fmt.Sprintf("%s %s shards=%d: node %d to %d through %d routers arrived after %d ns with %d ns contention, want %d ns and 0",
				spec, policy, shards, p[0], p[1], routers, got[i], contention[i], want))
		}
	}
	return bad
}

// samplePairs draws n distinct-endpoint pairs of nodes, every source and
// destination equally likely.
func samplePairs(nodes, n int, rng *sim.RNG) [][2]topology.NodeID {
	pairs := make([][2]topology.NodeID, 0, n)
	for len(pairs) < n {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a != b {
			pairs = append(pairs, [2]topology.NodeID{topology.NodeID(a), topology.NodeID(b)})
		}
	}
	return pairs
}

// TestZeroLoadLatencyClosedForm is the physics oracle at zero load: on a
// mesh, a torus, a fat tree and a dragonfly, under deterministic, adaptive
// and pr-drb routing, serial and on two shards, one packet per sampled
// (src, dst) pair crosses an empty fabric in exactly the closed form of
// zeroLoadLatency, its header accumulating no contention latency. A run
// with one nanosecond more link delay per hop must miss the same closed
// form on every pair.
func TestZeroLoadLatencyClosedForm(t *testing.T) {
	cfg := network.DefaultConfig()
	if want := sim.Time(276); cfg.SerializationTime(cfg.HeaderBytes)+cfg.LinkDelay != want || cfg.RoutingDelay != 40 {
		t.Fatalf("the Table 4.2/4.3 delays moved: header serialization plus link %d ns (want %d), routing %d ns (want 40)",
			cfg.SerializationTime(cfg.HeaderBytes)+cfg.LinkDelay, want, cfg.RoutingDelay)
	}
	specs := []string{"mesh-8x8", "torus-8x8", "ft-4-3", "df-4-8-2-2"}
	for _, spec := range specs {
		pairs := samplePairs(64, 96, sim.NewRNG(19))
		for _, policy := range []runner.Policy{runner.PolicyDeterministic, runner.PolicyAdaptive, runner.PolicyPRDRB} {
			for _, shards := range []int{1, 2} {
				for _, line := range zeroLoadMismatches(t, spec, policy, shards, cfg, cfg, pairs) {
					t.Error(line)
				}
			}
		}
	}
	planted := cfg
	planted.LinkDelay++
	for _, spec := range specs {
		pairs := samplePairs(64, 16, sim.NewRNG(23))
		if bad := zeroLoadMismatches(t, spec, runner.PolicyPRDRB, 2, planted, cfg, pairs); len(bad) != len(pairs) {
			t.Errorf("%s: one nanosecond more per hop missed the closed form on %d of %d pairs, want all", spec, len(bad), len(pairs))
		}
	}
}
