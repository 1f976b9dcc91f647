package traffic

import (
	"testing"
	"testing/quick"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func TestBitReversalKnownValues(t *testing.T) {
	p := BitReversal{Nodes: 8} // 3 bits
	cases := map[topology.NodeID]topology.NodeID{
		0: 0, 1: 4, 2: 2, 3: 6, 4: 1, 5: 5, 6: 3, 7: 7,
	}
	for s, want := range cases {
		if got := p.Destination(s, nil); got != want {
			t.Errorf("bitrev(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestPerfectShuffleKnownValues(t *testing.T) {
	p := PerfectShuffle{Nodes: 8}
	// Rotate left: 001 -> 010, 100 -> 001, 110 -> 101.
	cases := map[topology.NodeID]topology.NodeID{1: 2, 4: 1, 6: 5, 7: 7, 0: 0}
	for s, want := range cases {
		if got := p.Destination(s, nil); got != want {
			t.Errorf("shuffle(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestMatrixTransposeKnownValues(t *testing.T) {
	p := MatrixTranspose{Nodes: 16} // 4 bits, rotate by 2
	// s = yyxx -> d = xxyy: node (row,col) -> (col,row) in the 4x4 matrix.
	cases := map[topology.NodeID]topology.NodeID{
		0: 0, 1: 4, 2: 8, 3: 12, 4: 1, 5: 5, 15: 15, 6: 9,
	}
	for s, want := range cases {
		if got := p.Destination(s, nil); got != want {
			t.Errorf("transpose(%d) = %d, want %d", s, got, want)
		}
	}
}

// Property: every Table 4.1 pattern is a permutation (bijective).
func TestPermutationsAreBijective(t *testing.T) {
	for _, nodes := range []int{4, 16, 64, 256} {
		for _, name := range []string{"shuffle", "bitreversal", "transpose"} {
			p, err := ByName(name, nodes)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[topology.NodeID]bool, nodes)
			for s := 0; s < nodes; s++ {
				d := p.Destination(topology.NodeID(s), nil)
				if d < 0 || int(d) >= nodes || seen[d] {
					t.Fatalf("%s over %d nodes not bijective at src %d (dst %d)", name, nodes, s, d)
				}
				seen[d] = true
			}
		}
	}
}

// Property: transpose is an involution (transpose twice = identity).
func TestTransposeInvolution(t *testing.T) {
	f := func(sRaw uint8) bool {
		p := MatrixTranspose{Nodes: 64}
		s := topology.NodeID(sRaw % 64)
		return p.Destination(p.Destination(s, nil), nil) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bit reversal is an involution too.
func TestBitReversalInvolution(t *testing.T) {
	f := func(sRaw uint8) bool {
		p := BitReversal{Nodes: 128}
		s := topology.NodeID(sRaw % 128)
		return p.Destination(p.Destination(s, nil), nil) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformNeverSelf(t *testing.T) {
	p := Uniform{Nodes: 16}
	rng := sim.NewRNG(1)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		d := p.Destination(3, rng)
		if d == 3 {
			t.Fatal("uniform chose self")
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 3 {
			continue
		}
		if c < 700 || c > 1500 {
			t.Fatalf("uniform skewed: dst %d drawn %d/16000", d, c)
		}
	}
}

func TestHotSpotSilence(t *testing.T) {
	p := NewHotSpot(map[topology.NodeID]topology.NodeID{0: 15, 3: 15})
	if p.Destination(0, nil) != 15 || p.Destination(3, nil) != 15 {
		t.Fatal("hot-spot flows wrong")
	}
	if p.Destination(7, nil) != -1 {
		t.Fatal("non-participant not silent")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 16); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

// ByName is the boundary where a node count arrives from outside (a CLI
// flag, a campaign manifest): the bit permutations reject a count they
// are not defined on with an error, before any event runs; uniform takes
// any count.
func TestByNameNodeCounts(t *testing.T) {
	for _, name := range []string{"shuffle", "bitreversal", "transpose", "uniform"} {
		for _, nodes := range []int{9, 48, 64} {
			p, err := ByName(name, nodes)
			wantErr := name != "uniform" && nodes != 64
			if (err != nil) != wantErr {
				t.Errorf("ByName(%q, %d): err = %v, want error: %v", name, nodes, err, wantErr)
			}
			if (p == nil) != wantErr {
				t.Errorf("ByName(%q, %d): pattern = %v alongside err = %v", name, nodes, p, err)
			}
			if err == nil {
				// Must not trip the in-pattern invariant panic.
				p.Destination(0, sim.NewRNG(1))
			}
		}
	}
}

func TestNodeBitsPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 12 nodes")
		}
	}()
	BitReversal{Nodes: 12}.Destination(0, nil)
}

type directPolicy struct{}

func (directPolicy) Name() string { return "det" }
func (directPolicy) OutputPort(r *network.Router, pkt *network.Packet) int {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target)
	}
	return r.Net().Topo.NextHop(r.ID, pkt.Dst)
}

func buildNet(t *testing.T) *network.Network {
	t.Helper()
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	return network.MustNew(eng, topo, cfg, directPolicy{}, col)
}

func TestInstallInjectsAtRate(t *testing.T) {
	net := buildNet(t)
	// 1024 B at 409.6 Mbps = one packet per 20 us; 200 us window = ~10/node.
	Install(net, Spec{
		Pattern:     Uniform{Nodes: 16},
		RateBps:     409.6e6,
		PacketBytes: 1024,
		Start:       0,
		End:         200 * sim.Microsecond,
	}, sim.NewRNG(1))
	net.Eng.Run(sim.Infinity)
	got := net.Shards[0].Collector.Throughput.OfferedPkts
	want := int64(16 * 10)
	if got < want-20 || got > want+20 {
		t.Fatalf("offered %d packets, want ~%d", got, want)
	}
	if net.Shards[0].Collector.Throughput.AcceptedPkts != got {
		t.Fatalf("lost packets: %d offered, %d accepted", got, net.Shards[0].Collector.Throughput.AcceptedPkts)
	}
}

func TestInstallRestrictedNodes(t *testing.T) {
	net := buildNet(t)
	Install(net, Spec{
		Pattern:     NewHotSpot(map[topology.NodeID]topology.NodeID{0: 15}),
		RateBps:     1e9,
		PacketBytes: 1024,
		Start:       0,
		End:         50 * sim.Microsecond,
		Nodes:       []topology.NodeID{0, 1},
	}, sim.NewRNG(1))
	net.Eng.Run(sim.Infinity)
	// Node 1 is not in the hot-spot flow table: silent. Only node 0 sends.
	if net.Shards[0].Collector.Throughput.OfferedPkts == 0 {
		t.Fatal("no packets offered")
	}
	if net.NICs[15].Delivered == 0 {
		t.Fatal("hot-spot destination saw nothing")
	}
	for d := 0; d < 15; d++ {
		if net.NICs[d].Delivered != 0 {
			t.Fatalf("unexpected traffic to %d", d)
		}
	}
}

func TestInstallBursts(t *testing.T) {
	net := buildNet(t)
	end := InstallBursts(net, []Burst{{
		Pattern: PerfectShuffle{Nodes: 16},
		RateBps: 400e6,
		Len:     100 * sim.Microsecond,
		Gap:     100 * sim.Microsecond,
	}}, 0, 3, 1024, sim.NewRNG(2))
	if end != 600*sim.Microsecond {
		t.Fatalf("burst end = %v", end)
	}
	net.Eng.Run(sim.Infinity)
	if net.Shards[0].Collector.Throughput.OfferedPkts == 0 {
		t.Fatal("bursts injected nothing")
	}
	// All offered packets are delivered (lossless network).
	if net.Shards[0].Collector.Throughput.AcceptedRatio() != 1 {
		t.Fatalf("accepted ratio %v", net.Shards[0].Collector.Throughput.AcceptedRatio())
	}
}

func TestInstallPanicsOnBadSpec(t *testing.T) {
	net := buildNet(t)
	for i, spec := range []Spec{
		{Pattern: Uniform{Nodes: 16}, RateBps: 0, PacketBytes: 1024, End: 1},
		{Pattern: Uniform{Nodes: 16}, RateBps: 1e9, PacketBytes: 0, End: 1},
		{Pattern: Uniform{Nodes: 16}, RateBps: 1e9, PacketBytes: 1024, Start: 5, End: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad spec %d accepted", i)
				}
			}()
			Install(net, spec, sim.NewRNG(1))
		}()
	}
}
