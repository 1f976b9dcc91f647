package network_test

import (
	"fmt"
	"testing"

	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/traffic"
)

// Wheel-vs-heap differential oracle on full runs.
//
// The runner builds every simulation on the windowed wheel; heap mode (a
// bare sim.NewEngine) survives as its reference implementation. This is
// that reference at work above the engine's own unit tests: the same
// fabric, controllers and seeded traffic are assembled twice, once per
// scheduler, run to drain, and every delivery — data message and ACK,
// with its arrival time — plus the collectors' summary statistics must be
// equal. Any divergence in event order anywhere in the stack shows up as
// a different arrival time.

// oracleScenario hand-assembles one simulation on eng and returns the
// collector observing it.
type oracleScenario struct {
	name  string
	build func(t *testing.T, eng *sim.Engine) (*network.Network, *metrics.Collector)
}

func mustPattern(t *testing.T, name string, nodes int) traffic.Pattern {
	t.Helper()
	p, err := traffic.ByName(name, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var oracleScenarios = []oracleScenario{
	{"ft-4-3/adaptive/uniform", func(t *testing.T, eng *sim.Engine) (*network.Network, *metrics.Collector) {
		topo := topology.NewKAryNTree(4, 3)
		cfg := network.DefaultConfig()
		cfg.GenerateAcks = false
		col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
		net, err := network.New(eng, topo, cfg, routing.Adaptive{}, col)
		if err != nil {
			t.Fatal(err)
		}
		traffic.Install(net, traffic.Spec{Pattern: mustPattern(t, "uniform", topo.NumTerminals()),
			RateBps: 800e6, PacketBytes: cfg.PacketBytes, End: 300 * sim.Microsecond}, sim.NewRNG(11))
		return net, col
	}},
	{"mesh-8x8/pr-drb/shuffle-bursts", func(t *testing.T, eng *sim.Engine) (*network.Network, *metrics.Collector) {
		topo := topology.NewMesh(8, 8)
		cfg := network.DefaultConfig() // GenerateAcks on: the controllers feed on them
		col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
		net, err := network.New(eng, topo, cfg, routing.Deterministic{}, col)
		if err != nil {
			t.Fatal(err)
		}
		core.Install(net, core.PRDRBConfig(), 0xd4b)
		traffic.InstallBursts(net, []traffic.Burst{{Pattern: mustPattern(t, "shuffle", topo.NumTerminals()),
			RateBps: 600e6, Len: 100 * sim.Microsecond, Gap: 100 * sim.Microsecond}},
			0, 4, cfg.PacketBytes, sim.NewRNG(12))
		return net, col
	}},
}

// runOracle runs the scenario to drain on a heap or wheel engine and
// returns the delivery log followed by the summary lines.
func runOracle(t *testing.T, sc oracleScenario, wheel bool) []string {
	t.Helper()
	eng := sim.NewEngine()
	if wheel {
		eng.EnableWheel()
	}
	net, col := sc.build(t, eng)
	var log []string
	for _, nic := range net.NICs {
		nic := nic
		onMsg, onAck := nic.OnMessage, nic.OnAck
		nic.OnMessage = func(e *sim.Engine, src topology.NodeID, msgID uint64, bytes int, mpiType uint8, mpiSeq uint32) {
			log = append(log, fmt.Sprintf("msg %d %d->%d @%d", msgID, src, nic.ID, e.Now()))
			if onMsg != nil {
				onMsg(e, src, msgID, bytes, mpiType, mpiSeq)
			}
		}
		nic.OnAck = func(e *sim.Engine, ack *network.Packet) {
			log = append(log, fmt.Sprintf("ack %d %d->%d @%d", ack.MsgID, ack.Src, nic.ID, e.Now()))
			if onAck != nil {
				onAck(e, ack)
			}
		}
	}
	eng.Run(2 * sim.Second)
	if eng.Len() != 0 {
		t.Fatalf("%s: %d events pending at the horizon", sc.name, eng.Len())
	}
	peakRouter, peakNs := col.Contention.Peak()
	return append(log,
		fmt.Sprintf("engine: now=%d processed=%d", eng.Now(), eng.Processed),
		fmt.Sprintf("throughput: accepted=%d ratio=%v", col.Throughput.AcceptedPkts, col.Throughput.AcceptedRatio()),
		fmt.Sprintf("latency: global=%v p50=%v p99=%v", col.Latency.Global(), col.Hist.Quantile(0.5), col.Hist.Quantile(0.99)),
		fmt.Sprintf("contention: peak=%v@%d avg=%v", peakNs, peakRouter, col.Contention.GlobalAvg()),
	)
}

func TestWheelMatchesHeapOnFullRuns(t *testing.T) {
	for _, sc := range oracleScenarios {
		t.Run(sc.name, func(t *testing.T) {
			heap, wheel := runOracle(t, sc, false), runOracle(t, sc, true)
			if len(heap) < 1000 {
				t.Fatalf("scenario too small to be meaningful (%d log lines)", len(heap))
			}
			for i := 0; i < len(heap) && i < len(wheel); i++ {
				if heap[i] != wheel[i] {
					t.Fatalf("divergence at line %d: heap %q, wheel %q", i, heap[i], wheel[i])
				}
			}
			if len(heap) != len(wheel) {
				t.Fatalf("heap logged %d lines, wheel %d", len(heap), len(wheel))
			}
		})
	}
}
