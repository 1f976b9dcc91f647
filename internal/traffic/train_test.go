package traffic

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

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
		return net, []*sim.Engine{eng}, func() { eng.Run(sim.Infinity) }
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
	return net, group.Engines, func() { group.Run(sim.Infinity) }
}

// phaseLogPattern keeps the stream each phase's source of each node
// injected with. The phase of a call is the one whose window holds it:
// windows are disjoint and a source injects only inside its own.
type phaseLogPattern struct {
	Pattern
	net     *network.Network
	starts  []sim.Time   // per phase, ascending
	streams [][]*sim.RNG // [phase][node]
}

func (p phaseLogPattern) Destination(src topology.NodeID, rng *sim.RNG) topology.NodeID {
	now := p.net.EngineForNode(src).Now()
	p.streams[sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > now })-1][src] = rng
	return p.Pattern.Destination(src, rng)
}

// TestBurstTrainOpenersAndSlabs checks what no run's output shows, on
// burst cells serial and on 2 and 4 shards:
// right after installation each engine holds at most one pending event,
// its first phase opener, and a later phase reuses an earlier phase's slab
// only once that phase's sources are done (fixed and variable bursts
// reuse, bursts still live at the next opener do not). Install, a
// one-phase train, leaves one opener per engine.
func TestBurstTrainOpenersAndSlabs(t *testing.T) {
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
		reuse   = iota // later phases must reuse earlier slabs
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
			t.Run(fmt.Sprintf("%s/shards%d/jitter=false", c.name, shards), func(t *testing.T) {
				net, engines, run := newCell(t, shards)
				const start = 5 * sim.Microsecond
				starts, streams := make([]sim.Time, c.count), make([][]*sim.RNG, c.count)
				for rep, at := 0, start; rep < c.count; rep++ {
					starts[rep], streams[rep] = at, make([]*sim.RNG, 64)
					at += c.bursts[rep%len(c.bursts)].Len + c.bursts[rep%len(c.bursts)].Gap
				}
				logged := slices.Clone(c.bursts)
				for i := range logged {
					logged[i].Pattern = phaseLogPattern{Pattern: logged[i].Pattern, net: net, starts: starts, streams: streams}
				}
				InstallBursts(net, logged, start, c.count, 1024, sim.NewRNG(23))
				requireOpeners(t, engines, false)
				run()
				seen, reused, injected := map[*sim.RNG]bool{}, 0, 0
				for _, phase := range streams {
					for _, r := range phase {
						if r != nil {
							injected++
							if seen[r] {
								reused++
							}
							seen[r] = true
						}
					}
				}
				switch {
				case injected < 64:
					t.Fatalf("only %d phase sources injected", injected)
				case c.slabs == reuse && reused == 0:
					t.Fatal("no phase reused an earlier phase's slab")
				case c.slabs == noReuse && reused != 0:
					t.Fatalf("%d streams were handed to a later phase while their sources were live", reused)
				}
			})
		}
	}
	for _, shards := range []int{1, 2} {
		net, engines, _ := newCell(t, shards)
		Install(net, Spec{Pattern: Uniform{Nodes: 64}, RateBps: 600e6, PacketBytes: 1024, Start: 5 * us, End: 400 * us}, sim.NewRNG(11))
		requireOpeners(t, engines, true)
	}
}

// requireOpeners requires each engine to hold at most one pending event,
// a phase opener, and exactly one when every engine must have one.
func requireOpeners(t *testing.T, engines []*sim.Engine, each bool) {
	t.Helper()
	for e, eng := range engines {
		p := eng.PendingEvents()
		if len(p) > 1 || each && len(p) == 0 || len(p) == 1 && p[0].Actor != "*traffic.lane" {
			t.Fatalf("engine %d: pending after install %+v, want one opener", e, p)
		}
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
