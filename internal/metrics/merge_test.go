package metrics

import (
	"math"
	"testing"

	"prdrb/internal/sim"
)

// TestMergeDisjointExact pins that merging shard collectors with disjoint
// index sets reproduces exactly what a single collector would have
// recorded — the sharded-runner case.
func TestMergeDisjointExact(t *testing.T) {
	const nodes, routers = 4, 4
	window := sim.Time(100)
	ref := NewCollector(nodes, routers, window)
	parts := []*Collector{
		NewCollector(nodes, routers, window),
		NewCollector(nodes, routers, window),
	}
	// Interleave observations over disjoint (node, router) halves, in time
	// order per collector.
	obs := []struct {
		shard, dst, rtr int
		lat             sim.Time
		at              sim.Time
	}{
		{0, 0, 0, 500, 10},
		{1, 2, 2, 900, 15},
		{0, 1, 1, 700, 120},
		{1, 3, 3, 1100, 130},
		{1, 2, 2, 300, 260},
		{0, 0, 0, 800, 270},
	}
	for _, o := range obs {
		for _, c := range []*Collector{ref, parts[o.shard]} {
			c.PacketInjected(1024)
			c.PacketDelivered(o.dst, 1024, o.lat, o.at)
			c.QueueWait(o.rtr, o.lat/10, o.at)
		}
	}
	ref.PacketDropped(64)
	parts[0].PacketDropped(64)
	ref.MessageUnreachable()
	parts[1].MessageUnreachable()
	ref.PathRecovered(5000)
	parts[1].PathRecovered(5000)

	got := MergeCollectors(parts)
	if got.Throughput != ref.Throughput {
		t.Fatalf("throughput %+v != %+v", got.Throughput, ref.Throughput)
	}
	for d := 0; d < nodes; d++ {
		if got.Latency.perDst[d].Mean() != ref.Latency.perDst[d].Mean() {
			t.Fatalf("dst %d latency %v != %v", d, got.Latency.perDst[d].Mean(), ref.Latency.perDst[d].Mean())
		}
	}
	if got.Latency.Global() != ref.Latency.Global() {
		t.Fatalf("global latency %v != %v", got.Latency.Global(), ref.Latency.Global())
	}
	for r := 0; r < routers; r++ {
		if got.Contention.Avg(r) != ref.Contention.Avg(r) ||
			got.Contention.Max(r) != ref.Contention.Max(r) ||
			got.Contention.Count(r) != ref.Contention.Count(r) {
			t.Fatalf("router %d contention mismatch", r)
		}
	}
	if got.Hist.Count() != ref.Hist.Count() || got.Hist.Quantile(0.5) != ref.Hist.Quantile(0.5) {
		t.Fatal("histogram mismatch")
	}
	if got.Recovery.Count() != ref.Recovery.Count() {
		t.Fatal("recovery histogram mismatch")
	}
	rs, gs := ref.GlobalSeries.Samples(), got.GlobalSeries.Samples()
	if len(rs) != len(gs) {
		t.Fatalf("series length %d != %d", len(gs), len(rs))
	}
	for i := range rs {
		if rs[i].At != gs[i].At || rs[i].N != gs[i].N || rs[i].Max != gs[i].Max ||
			math.Abs(rs[i].Avg-gs[i].Avg) > 1e-9 {
			t.Fatalf("series sample %d: %+v != %+v", i, gs[i], rs[i])
		}
	}
}

// TestMergeOverlapWeighted pins the weighted combination when two shards
// observed the same index.
func TestMergeOverlapWeighted(t *testing.T) {
	a := NewCollector(1, 1, 0)
	b := NewCollector(1, 1, 0)
	a.PacketDelivered(0, 10, 100, 0)
	b.PacketDelivered(0, 10, 200, 0)
	b.PacketDelivered(0, 10, 300, 0)
	got := MergeCollectors([]*Collector{a, b})
	if want := (100.0 + 200.0 + 300.0) / 3; math.Abs(got.Latency.perDst[0].Mean()-want) > 1e-9 {
		t.Fatalf("weighted mean %v, want %v", got.Latency.perDst[0].Mean(), want)
	}
}
