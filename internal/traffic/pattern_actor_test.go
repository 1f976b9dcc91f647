package traffic

import (
	"fmt"
	"slices"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// refInstall is Install as it was while every node's injector was a tick
// closure rescheduling itself: the oracle for the typed actor.
func refInstall(net *network.Network, spec Spec, rng *sim.RNG) {
	mpiType := spec.MPIType
	if mpiType == 0 {
		mpiType = network.MPISend
	}
	nodes := spec.Nodes
	if nodes == nil {
		for i := 0; i < net.Topo.NumTerminals(); i++ {
			nodes = append(nodes, topology.NodeID(i))
		}
	}
	iv := spec.interval()
	base := rng.Uint64()
	for _, node := range nodes {
		node := node
		r := sim.NewRNG(base ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
		first := spec.Start + sim.Time(r.Float64()*float64(iv))
		var tick func(e *sim.Engine)
		tick = func(e *sim.Engine) {
			if e.Now() >= spec.End {
				return
			}
			dst := spec.Pattern.Destination(node, r)
			if dst >= 0 && dst != node {
				net.NICs[node].Send(e, dst, spec.PacketBytes, mpiType, 0)
			}
			next := iv
			if spec.Jitter {
				next = sim.Time(r.Exp(float64(iv)))
				if next <= 0 {
					next = 1
				}
			}
			e.After(next, tick)
		}
		net.EngineForNode(node).Schedule(first, tick)
	}
}

// nodeLogPattern logs every Destination call per source node: when it ran,
// how many events the node's engine had scheduled and executed by then
// (which fixes the (time, seq) key of every event of that engine so far),
// and where the node's stream stood. It also keeps each node's stream, so
// the stream's final position can be read after the run. One log per node,
// so shards running side by side never share one.
type nodeLogPattern struct {
	Pattern
	net     *network.Network
	logs    [][]genEvent
	streams []*sim.RNG
}

func (p nodeLogPattern) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	eng := p.net.EngineForNode(src)
	p.logs[src] = append(p.logs[src], genEvent{at: eng.Now(), seq: eng.Seq(), processed: eng.Processed, node: src, rng: rng.State()})
	p.streams[src] = rng
	return p.Pattern.Destination(src, rng)
}

// patternRun is what one run of the 64-node cell leaves behind.
type patternRun struct {
	logs    [][]genEvent
	pending [][]sim.PendingEvent // per engine, right after installation
	seqs    []uint64             // per engine, after the run
	final   [][4]uint64          // per node, its stream's position after the run
}

// newCell builds the 64-node ft-4-3 fabric without ACKs, serial or on
// shards, and returns it with its engines and a function running it to the
// end.
func newCell(t *testing.T, shards int) (*network.Network, []*sim.Engine, func()) {
	t.Helper()
	topo := topology.NewKAryNTree(4, 3)
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	if shards == 1 {
		eng := sim.NewEngine()
		col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
		net := network.MustNew(eng, topo, cfg, directPolicy{}, col)
		return net, []*sim.Engine{eng}, func() { eng.RunAll() }
	}
	assign, err := topology.Partition(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	group := sim.NewShardGroup(shards, cfg.Lookahead())
	cols := make([]*metrics.Collector, shards)
	for i := range cols {
		cols[i] = metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	}
	net, err := network.NewSharded(group, topo, cfg, directPolicy{}, cols, make([]*telemetry.Tracer, shards), assign)
	if err != nil {
		t.Fatal(err)
	}
	return net, group.Engines, func() { group.RunAll() }
}

func runPatternCell(t *testing.T, shards int, jitter bool, install func(*network.Network, Spec, *sim.RNG)) patternRun {
	t.Helper()
	net, engines, run := newCell(t, shards)
	topo := net.Topo
	out := patternRun{logs: make([][]genEvent, topo.NumTerminals())}
	streams := make([]*sim.RNG, topo.NumTerminals())
	install(net, Spec{
		Pattern:     nodeLogPattern{Pattern: Uniform{Nodes: 64}, net: net, logs: out.logs, streams: streams},
		RateBps:     600e6,
		PacketBytes: 1024,
		Start:       5 * sim.Microsecond,
		End:         400 * sim.Microsecond,
		Jitter:      jitter,
	}, sim.NewRNG(11))
	for _, eng := range engines {
		out.pending = append(out.pending, eng.PendingEvents())
	}
	run()
	for _, eng := range engines {
		out.seqs = append(out.seqs, eng.Seq())
	}
	for _, r := range streams {
		if r == nil {
			t.Fatal("a node never injected")
		}
		out.final = append(out.final, r.State())
	}
	return out
}

// TestPatternSourceMatchesClosures runs a 64-node uniform cell on the
// reference tick closures and on the typed actors — serial and on two
// shards, with fixed and with exponential spacing — and requires every
// node's injections to agree on time, engine sequence and executed-event
// counters and RNG position, and the finished runs to agree on every
// engine's final sequence number and every node's final stream position.
// Install is a one-phase train, so right after installation each engine
// holds exactly one pending event, the phase's opener, keyed where the
// earliest of the reference's pending events is.
func TestPatternSourceMatchesClosures(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, jitter := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards%d/jitter=%v", shards, jitter), func(t *testing.T) {
				want := runPatternCell(t, shards, jitter, refInstall)
				got := runPatternCell(t, shards, jitter, Install)
				injections := 0
				for node, w := range want.logs {
					injections += len(w)
					if g := got.logs[node]; !slices.Equal(g, w) {
						for i := range w {
							if i >= len(g) || g[i] != w[i] {
								t.Fatalf("node %d injection %d differs: actor %+v, closures %+v", node, i, g[i:min(i+1, len(g))], w[i])
							}
						}
						t.Fatalf("node %d: actor injected %d times, closures %d", node, len(g), len(w))
					}
				}
				if injections < 64*20 {
					t.Fatalf("reference run injected only %d times", injections)
				}
				for i, wp := range want.pending {
					gp := got.pending[i]
					if len(gp) != 1 {
						t.Fatalf("engine %d: %d events pending after install, want one opener", i, len(gp))
					}
					if g, w := gp[0], wp[0]; g.At != w.At || g.Seq != w.Seq {
						t.Fatalf("engine %d: opener keyed (%v, %d), reference's earliest event (%v, %d)", i, g.At, g.Seq, w.At, w.Seq)
					}
				}
				if !slices.Equal(got.seqs, want.seqs) {
					t.Fatalf("runs ended at sequences %v, reference %v", got.seqs, want.seqs)
				}
				for node, w := range want.final {
					if got.final[node] != w {
						t.Fatalf("node %d's stream ended elsewhere than the reference's", node)
					}
				}
			})
		}
	}
}
