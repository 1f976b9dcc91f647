package traffic

import (
	"slices"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// refInstallHeavyTail is InstallHeavyTail as it was while every node's
// generator was a pair of closures over three boxed variables: the oracle
// for the typed actor.
func refInstallHeavyTail(net *network.Network, spec HeavyTail, rng *sim.RNG) {
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
	ivf := 1e9 / spec.FlowRate // mean ns between flow starts while ON
	base := rng.Uint64()
	for _, node := range nodes {
		node := node
		r := sim.NewRNG(base ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
		var onEnd sim.Time
		var flow func(e *sim.Engine)
		var cycle func(e *sim.Engine)
		flow = func(e *sim.Engine) {
			if e.Now() >= spec.End || e.Now() >= onEnd {
				return
			}
			dst := spec.Pattern.Destination(node, r)
			if dst >= 0 && dst != node {
				net.NICs[node].Send(e, dst, spec.Sizes.Sample(r), mpiType, 0)
			}
			next := sim.Time(r.Exp(ivf))
			if next <= 0 {
				next = 1
			}
			e.After(next, flow)
		}
		cycle = func(e *sim.Engine) {
			if e.Now() >= spec.End {
				return
			}
			on := sim.Time(r.Exp(float64(spec.OnMean)))
			if on <= 0 {
				on = 1
			}
			onEnd = e.Now() + on
			flow(e)
			gap := on
			if spec.OffMean > 0 {
				off := sim.Time(r.Exp(float64(spec.OffMean)))
				if off <= 0 {
					off = 1
				}
				gap += off
			}
			e.After(gap, cycle)
		}
		first := spec.Start + sim.Time(r.Float64()*ivf)
		net.EngineForNode(node).Schedule(first, cycle)
	}
}

// genEvent is what one flow start looked like from inside the generator:
// when it ran, how many events the engine had scheduled and executed by
// then (which fixes the (time, seq) key of every event so far, the
// generators' and the fabric's), and where the node's stream stood.
type genEvent struct {
	at             sim.Time
	seq, processed uint64
	node           topology.NodeID
	rng            [4]uint64
}

// recordingPattern logs the first limit Destination calls, and keeps every
// calling node's stream so its final position can be read after the run.
type recordingPattern struct {
	Pattern
	eng     *sim.Engine
	log     *[]genEvent
	limit   int
	streams map[topology.NodeID]*sim.RNG
}

func (p recordingPattern) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	if len(*p.log) < p.limit {
		*p.log = append(*p.log, genEvent{at: p.eng.Now(), seq: p.eng.Seq(), processed: p.eng.Processed, node: src, rng: rng.State()})
	}
	p.streams[src] = rng
	return p.Pattern.Destination(src, rng)
}

// TestHeavyTailActorMatchesClosures runs a 64-node cell twice, once on the
// reference closures and once on the typed actors, and requires the first
// 10,000 flow starts to agree on time, engine sequence and executed-event
// counters, node and RNG position, the pending events after installation to
// carry the same (time, seq) keys, and the finished runs to agree on every
// node's final stream position.
func TestHeavyTailActorMatchesClosures(t *testing.T) {
	const limit = 10000
	for _, c := range []struct{ offMean, end sim.Time }{
		{30 * sim.Microsecond, 16 * sim.Millisecond},
		// Always on: every cycle starts on the exact tick its predecessor's
		// ON period ends, whose flow chain therefore survives beside the new
		// one, so the load grows with time and the window is kept short.
		{0, 3 * sim.Millisecond},
	} {
		offMean := c.offMean
		run := func(install func(*network.Network, HeavyTail, *sim.RNG)) ([]genEvent, []sim.PendingEvent, map[topology.NodeID][4]uint64, uint64) {
			topo := topology.NewKAryNTree(4, 3)
			eng := sim.NewEngine()
			cfg := network.DefaultConfig()
			cfg.GenerateAcks = false
			col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
			net := network.MustNew(eng, topo, cfg, directPolicy{}, col)
			var log []genEvent
			streams := map[topology.NodeID]*sim.RNG{}
			install(net, HeavyTail{
				Pattern:  recordingPattern{Pattern: NewGroupLocal(64, 4, 0.7), eng: eng, log: &log, limit: limit, streams: streams},
				Sizes:    CacheCDF(),
				FlowRate: 2e4,
				OnMean:   40 * sim.Microsecond, OffMean: offMean,
				End: c.end,
			}, sim.NewRNG(5))
			pending := eng.PendingEvents()
			eng.RunAll()
			final := make(map[topology.NodeID][4]uint64, len(streams))
			for node, r := range streams {
				final[node] = r.State()
			}
			return log, pending, final, eng.Seq()
		}
		wantLog, wantPending, wantFinal, wantSeq := run(refInstallHeavyTail)
		gotLog, gotPending, gotFinal, gotSeq := run(InstallHeavyTail)
		if len(wantLog) != limit {
			t.Fatalf("off=%v: reference run logged %d flow starts, want %d", offMean, len(wantLog), limit)
		}
		if !slices.Equal(gotLog, wantLog) {
			for i := range wantLog {
				if i >= len(gotLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("off=%v: flow start %d differs: actor %+v, closures %+v", offMean, i, gotLog[i:min(i+1, len(gotLog))], wantLog[i])
				}
			}
		}
		if len(gotPending) != len(wantPending) {
			t.Fatalf("off=%v: %d events pending after install, reference %d", offMean, len(gotPending), len(wantPending))
		}
		for i, w := range wantPending {
			if g := gotPending[i]; g.At != w.At || g.Seq != w.Seq {
				t.Fatalf("off=%v: pending event %d keyed (%v, %d), reference (%v, %d)", offMean, i, g.At, g.Seq, w.At, w.Seq)
			}
		}
		if gotSeq != wantSeq {
			t.Fatalf("off=%v: run ended at sequence %d, reference %d", offMean, gotSeq, wantSeq)
		}
		if len(wantFinal) != 64 || len(gotFinal) != len(wantFinal) {
			t.Fatalf("off=%v: %d nodes drew flows, reference %d of 64", offMean, len(gotFinal), len(wantFinal))
		}
		for node, w := range wantFinal {
			if gotFinal[node] != w {
				t.Fatalf("off=%v: node %d's stream ended elsewhere than the reference's", offMean, node)
			}
		}
	}
}
