package traffic

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// refInstallBursts is InstallBursts as it was while every burst installed
// all of its sources at set-up, one Install per burst — here the reference
// closures of refInstall, with the phases' jitter set as asked.
func refInstallBursts(net *network.Network, bursts []Burst, start sim.Time, count, packetBytes int, jitter bool, rng *sim.RNG) sim.Time {
	t := start
	for rep := 0; rep < count; rep++ {
		b := bursts[rep%len(bursts)]
		refInstall(net, Spec{
			Pattern:     b.Pattern,
			RateBps:     b.RateBps,
			PacketBytes: packetBytes,
			Start:       t,
			End:         t + b.Len,
			Nodes:       b.Nodes,
			Jitter:      jitter,
		}, rng.Split(uint64(rep)+0xb0))
		t += b.Len + b.Gap
	}
	return t
}

// trainInstallBursts is InstallBursts with the phases' jitter set as asked.
func trainInstallBursts(net *network.Network, bursts []Burst, start sim.Time, count, packetBytes int, jitter bool, rng *sim.RNG) sim.Time {
	if !jitter {
		return InstallBursts(net, bursts, start, count, packetBytes, rng)
	}
	phases, end := burstPhases(bursts, start, count, packetBytes, rng)
	for i := range phases {
		phases[i].spec.Jitter = true
	}
	installTrain(net, phases)
	return end
}

// phaseLogPattern logs every Destination call per node, as nodeLogPattern
// does, and keeps the stream each phase's source of each node injected
// with. The phase of a call is the one whose window holds it: windows are
// disjoint and a source injects only inside its own.
type phaseLogPattern struct {
	Pattern
	net     *network.Network
	starts  []sim.Time // per phase, ascending
	logs    [][]genEvent
	streams [][]*sim.RNG // [phase][node]
}

func (p phaseLogPattern) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	eng := p.net.EngineForNode(src)
	p.logs[src] = append(p.logs[src], genEvent{at: eng.Now(), seq: eng.Seq(), processed: eng.Processed, node: src, rng: rng.State()})
	ph := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > eng.Now() }) - 1
	p.streams[ph][src] = rng
	return p.Pattern.Destination(src, rng)
}

// trainRun is what one run of a burst cell leaves behind.
type trainRun struct {
	logs      [][]genEvent
	pending   [][]sim.PendingEvent // per engine, right after installation
	seqs      []uint64             // per engine, after the run
	processed []uint64             // per engine, after the run
	streams   [][]*sim.RNG         // [phase][node]
	final     [][][4]uint64        // [phase][node], nil entries for no stream
}

type burstInstall func(*network.Network, []Burst, sim.Time, int, int, bool, *sim.RNG) sim.Time

func runBurstCell(t *testing.T, shards int, jitter bool, bursts []Burst, count int, install burstInstall) trainRun {
	t.Helper()
	net, engines, run := newCell(t, shards)
	nodes := net.Topo.NumTerminals()
	const start = 5 * sim.Microsecond
	out := trainRun{logs: make([][]genEvent, nodes), streams: make([][]*sim.RNG, count)}
	starts := make([]sim.Time, count)
	for rep, at := 0, start; rep < count; rep++ {
		b := bursts[rep%len(bursts)]
		starts[rep] = at
		at += b.Len + b.Gap
		out.streams[rep] = make([]*sim.RNG, nodes)
	}
	logged := make([]Burst, len(bursts))
	for i, b := range bursts {
		b.Pattern = phaseLogPattern{Pattern: b.Pattern, net: net, starts: starts, logs: out.logs, streams: out.streams}
		logged[i] = b
	}
	install(net, logged, start, count, 1024, jitter, sim.NewRNG(23))
	for _, eng := range engines {
		out.pending = append(out.pending, eng.PendingEvents())
	}
	run()
	for _, eng := range engines {
		out.seqs = append(out.seqs, eng.Seq())
		out.processed = append(out.processed, eng.Processed)
	}
	for _, phase := range out.streams {
		final := make([][4]uint64, nodes)
		for node, r := range phase {
			if r != nil {
				final[node] = r.State()
			}
		}
		out.final = append(out.final, final)
	}
	return out
}

// TestBurstTrainMatchesEager runs burst cells on the eager reference, every
// burst's sources installed at set-up, and on the phase train — fixed and
// variable bursts (different Nodes subsets), bursts shorter than one
// packet interval, no gap, bursts whose sources are still live when the
// next burst opens, each with and without jitter, serial and on 2 and 4
// shards. Every node's injections must agree on time, engine sequence,
// executed-event counters and stream position; every engine must end at
// the same sequence number and executed-event count; right after
// installation each engine holds only its first opener (checkOpeners);
// streams end where the eager ones do and slabs are reused as the case
// asks (checkStreams).
func TestBurstTrainMatchesEager(t *testing.T) {
	us := sim.Microsecond
	var first32, odd []topology.NodeID
	for i := 0; i < 64; i++ {
		if i < 32 {
			first32 = append(first32, topology.NodeID(i))
		}
		if i%2 == 1 {
			odd = append(odd, topology.NodeID(i))
		}
	}
	uniform := func(rate float64, length, gap sim.Time) Burst {
		return Burst{Pattern: Uniform{Nodes: 64}, RateBps: rate, Len: length, Gap: gap}
	}
	// At 600 Mbps a 1 KiB packet takes 13.65 us.
	const (
		reuse   = iota // later phases must reuse earlier slabs (without jitter)
		noReuse        // no phase may reuse another's slab
		either
	)
	for _, c := range []struct {
		name   string
		bursts []Burst
		count  int
		slabs  int
	}{
		{"fixed", []Burst{uniform(600e6, 60*us, 40*us)}, 5, reuse},
		{"variable", []Burst{
			uniform(600e6, 50*us, 30*us),
			{Pattern: PerfectShuffle{Nodes: 32}, RateBps: 800e6, Len: 40 * us, Gap: 30 * us, Nodes: first32},
			{Pattern: Uniform{Nodes: 64}, RateBps: 400e6, Len: 50 * us, Gap: 30 * us, Nodes: odd},
		}, 6, reuse},
		{"shorter-than-interval", []Burst{uniform(600e6, 5*us, 30*us)}, 5, reuse},
		{"gap0", []Burst{uniform(600e6, 40*us, 0)}, 4, either},
		{"still-live", []Burst{uniform(600e6, 3*us, 0)}, 5, noReuse},
	} {
		for _, shards := range []int{1, 2, 4} {
			for _, jitter := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards%d/jitter=%v", c.name, shards, jitter), func(t *testing.T) {
					want := runBurstCell(t, shards, jitter, c.bursts, c.count, refInstallBursts)
					got := runBurstCell(t, shards, jitter, c.bursts, c.count, trainInstallBursts)
					injections := 0
					for node, w := range want.logs {
						injections += len(w)
						if g := got.logs[node]; !slices.Equal(g, w) {
							for i := range w {
								if i >= len(g) || g[i] != w[i] {
									t.Fatalf("node %d injection %d differs: train %+v, eager %+v", node, i, g[i:min(i+1, len(g))], w[i])
								}
							}
							t.Fatalf("node %d: train injected %d times, eager %d", node, len(g), len(w))
						}
					}
					if injections < 64 {
						t.Fatalf("the eager run injected only %d times", injections)
					}
					if !slices.Equal(got.seqs, want.seqs) || !slices.Equal(got.processed, want.processed) {
						t.Fatalf("runs ended at sequences %v after %v events, eager %v after %v",
							got.seqs, got.processed, want.seqs, want.processed)
					}
					checkOpeners(t, want, got)
					checkStreams(t, want, got, c.slabs == reuse && !jitter, c.slabs == noReuse)
				})
			}
		}
	}
}

// checkOpeners requires each engine to hold exactly one pending event
// right after installation, its first opener, keyed where the earliest of
// the eager run's first events on that engine is.
func checkOpeners(t *testing.T, want, got trainRun) {
	t.Helper()
	for e, wp := range want.pending {
		gp := got.pending[e]
		if len(wp) == 0 {
			if len(gp) != 0 {
				t.Fatalf("engine %d: %d events pending after install, eager none", e, len(gp))
			}
			continue
		}
		if len(gp) != 1 || gp[0].Actor != "*traffic.lane" {
			t.Fatalf("engine %d: pending after install %+v, want one opener", e, gp)
		}
		if g, w := gp[0], wp[0]; g.At != w.At || g.Seq != w.Seq {
			t.Fatalf("engine %d: opener keyed (%v, %d), eager's earliest event (%v, %d)", e, g.At, g.Seq, w.At, w.Seq)
		}
	}
}

// checkStreams compares where streams ended and checks slab reuse as the
// case asks. A phase reusing a slab reseeds its streams, so only streams
// no later phase can have taken over are compared: those of the last
// phase, and every stream when no slab may be reused. Reuse shows as a
// stream handed to a later phase's source of the same node.
func checkStreams(t *testing.T, want, got trainRun, mustReuse, mustNotReuse bool) {
	t.Helper()
	seen := map[*sim.RNG]bool{}
	reused := 0
	last := len(got.streams) - 1
	for p, phase := range got.streams {
		for node, r := range phase {
			if (r == nil) != (want.streams[p][node] == nil) {
				t.Fatalf("phase %d node %d: train injected %v, eager %v", p, node, r != nil, want.streams[p][node] != nil)
			}
			if r == nil {
				continue
			}
			if seen[r] {
				reused++
			}
			seen[r] = true
			if (p == last || mustNotReuse) && got.final[p][node] != want.final[p][node] {
				t.Fatalf("phase %d node %d: the stream ended elsewhere than the eager one", p, node)
			}
		}
	}
	if mustReuse && reused == 0 {
		t.Fatal("no phase reused an earlier phase's slab")
	}
	if mustNotReuse && reused != 0 {
		t.Fatalf("%d streams were handed to a later phase while their sources were live", reused)
	}
}

// TestBurstTrainAllocs pins what a train costs in objects. Installing 40
// bursts allocates O(bursts + shards) objects — the bursts' stream splits,
// the train's slices, one opener event per shard — never one per burst and
// node (eager installation made two slices per burst and 2,560 events on a
// 64-node fabric). And once the previous burst has drained, a burst — its
// opener rebuilding the sources in the previous burst's slab, and the
// fabric carrying their packets — allocates nothing.
func TestBurstTrainAllocs(t *testing.T) {
	us := sim.Microsecond
	bursts := []Burst{{Pattern: Uniform{Nodes: 64}, RateBps: 600e6, Len: 60 * us, Gap: 40 * us}}
	for _, shards := range []int{1, 2, 4} {
		net, _, _ := newCell(t, shards)
		rng := sim.NewRNG(5)
		const count = 40
		allocs := testing.AllocsPerRun(10, func() { InstallBursts(net, bursts, 0, count, 1024, rng) })
		t.Logf("shards %d: installing %d bursts allocates %.1f objects", shards, count, allocs)
		if limit := float64(count + 2*shards + 4); allocs > limit {
			t.Errorf("shards %d: installing %d bursts allocates %.1f objects, want <= %.0f", shards, count, allocs, limit)
		}
	}

	net, engines, _ := newCell(t, 1)
	eng := engines[0]
	const period = 100 * sim.Microsecond
	InstallBursts(net, bursts, 0, 12, 1024, sim.NewRNG(5))
	next := sim.Time(3) // bursts 0-2 warm the slab and the fabric
	eng.Run(next * period)
	allocs := testing.AllocsPerRun(6, func() {
		next++
		eng.Run(next * period)
	})
	if next != 10 || eng.Len() == 0 {
		t.Fatalf("ran to burst %d with %d events pending; the cell no longer has bursts left to measure", next, eng.Len())
	}
	if allocs != 0 {
		t.Fatalf("a burst after a drained one allocates %.2f objects, want 0", allocs)
	}
}
