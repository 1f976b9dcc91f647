package core

import (
	"testing"
	"unsafe"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// newMetapath returns a direct-only metapath from node 0 toward dst.
func newMetapath(dst topology.NodeID, floor sim.Time) *metapath {
	return &metapath{dst: int32(dst), latNs: float64(floor)}
}

// TestCoreLayoutSizes pins the per-source and per-destination records:
// every source of a 4096-node fabric holds a Controller, and every
// destination it talks to a metapath. The path set lives in the cold
// record, which only destinations that open or restore a path, are
// reported or are watched make.
func TestCoreLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Controller", unsafe.Sizeof(Controller{}), 160},
		{"metapath", unsafe.Sizeof(metapath{}), 40},
		{"pathState", unsafe.Sizeof(pathState{}), 40},
		{"metapathCold", unsafe.Sizeof(metapathCold{}), 128},
	} {
		t.Logf("%s: %d B", c.name, c.size)
		if c.size > c.max {
			t.Errorf("%s is %d B, want <= %d", c.name, c.size, c.max)
		}
	}
}

// installOn builds a 64-node fat tree on the given number of shards and
// installs pr-drb controllers on it.
func installOn(t *testing.T, shards int) []*Controller {
	t.Helper()
	topo := topology.NewKAryNTree(4, 3)
	cfg := network.DefaultConfig()
	var net *network.Network
	var err error
	if shards == 1 {
		col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
		net, err = network.New(sim.NewEngine(), topo, cfg, routing.Deterministic{}, col)
	} else {
		var assign []int
		if assign, err = topology.Partition(topo, shards); err != nil {
			t.Fatal(err)
		}
		cols := make([]*metrics.Collector, shards)
		for i := range cols {
			cols[i] = metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
		}
		net, err = network.NewSharded(sim.NewShardGroup(shards, cfg.Lookahead()), topo, cfg,
			routing.Deterministic{}, cols, make([]*telemetry.Tracer, shards), assign)
	}
	if err != nil {
		t.Fatal(err)
	}
	return Install(net, PRDRBConfig(), 11)
}

// TestMetapathIndexMatchesMap: each shard's open-addressed index returns
// the record a reference map keyed by (source, destination) holds, for a
// random sequence of pairs that grows every index several times over.
func TestMetapathIndexMatchesMap(t *testing.T) {
	for _, shards := range []int{1, 2} {
		ctls := installOn(t, shards)
		ref := make(map[[2]topology.NodeID]*metapath)
		rng := sim.NewRNG(uint64(shards))
		n := len(ctls)
		for i := 0; i < 6000; i++ {
			src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
			c := ctls[src]
			want, known := ref[[2]topology.NodeID{src, dst}]
			if got := c.find(dst); got != want {
				t.Fatalf("shards=%d step %d: find(%d->%d) = %p, reference %p", shards, i, src, dst, got, want)
			}
			mp := c.metapathFor(dst)
			if known && mp != want || mp.src != int32(src) || mp.dst != int32(dst) {
				t.Fatalf("shards=%d step %d: metapathFor(%d->%d) returned the record of %d->%d", shards, i, src, dst, mp.src, mp.dst)
			}
			ref[[2]topology.NodeID{src, dst}] = mp
		}
		indexed := 0
		seen := map[*shardState]bool{}
		for _, c := range ctls {
			if !seen[c.sh] {
				seen[c.sh] = true
				indexed += c.sh.index.n
			}
		}
		if len(seen) != shards || indexed != len(ref) {
			t.Fatalf("shards=%d: %d shard contexts index %d records, want %d and %d", shards, len(seen), indexed, shards, len(ref))
		}
		for k, want := range ref {
			if got := ctls[k[0]].find(k[1]); got != want {
				t.Fatalf("shards=%d: after growth find(%d->%d) = %p, reference %p", shards, k[0], k[1], got, want)
			}
		}
	}
}

// TestInstallRNGMatchesSplit: a controller's by-value stream is the one
// root.Split(node+1) would hand it, so every draw matches the generators
// controllers once allocated one by one.
func TestInstallRNGMatchesSplit(t *testing.T) {
	ctls := installOn(t, 1)
	root := sim.NewRNG(11)
	for _, c := range ctls {
		if want := root.Split(uint64(c.Node) + 1); c.rng != *want {
			t.Fatalf("node %d: stream differs from root.Split(%d)", c.Node, c.Node+1)
		}
	}
}
