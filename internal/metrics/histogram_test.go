package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"prdrb/internal/sim"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 1..1000 us uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// p50 should land near 500us within bucket resolution (~±13%).
	p50 := h.Quantile(0.5) / 1e3
	if p50 < 400 || p50 > 620 {
		t.Fatalf("p50 = %vus, want ~500", p50)
	}
	p99 := h.Quantile(0.99) / 1e3
	if p99 < 850 || p99 > 1000 {
		t.Fatalf("p99 = %vus, want ~990", p99)
	}
	if h.Quantile(0) != float64(sim.Microsecond) {
		t.Fatalf("q0 = %v, want min", h.Quantile(0))
	}
	if h.Quantile(1) != float64(1000*sim.Microsecond) {
		t.Fatalf("q1 = %v, want max", h.Quantile(1))
	}
	if !strings.Contains(h.String(), "p99") {
		t.Fatal("render missing percentiles")
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		var lo, hi sim.Time = math.MaxInt64, 0
		for _, v := range raw {
			tv := sim.Time(v%10_000_000) + 1
			h.Observe(tv)
			if tv < lo {
				lo = tv
			}
			if tv > hi {
				hi = tv
			}
		}
		qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
		vals := make([]float64, len(qs))
		for i, q := range qs {
			vals[i] = h.Quantile(q)
			if vals[i] < float64(lo) || vals[i] > float64(hi) {
				return false
			}
		}
		return sort.Float64sAreSorted(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)               // clamps to bucket 0
	h.Observe(1 << 62)         // clamps to top bucket
	h.Observe(sim.Microsecond) // normal
	if h.Count() != 3 {
		t.Fatal("edge observations lost")
	}
	if h.Quantile(1) != float64(sim.Time(1<<62)) {
		t.Fatal("max not tracked")
	}
}

// TestBucketOfMatchesLogFormula pins the table lookup to the logarithm it
// replaced: at every bucket boundary ±2 ns, every power of ten (where the
// floating-point log is most delicate), the clamps, and a million random
// latencies spread evenly over the bit lengths.
func TestBucketOfMatchesLogFormula(t *testing.T) {
	check := func(v sim.Time) {
		t.Helper()
		if got, want := bucketOf(v), logBucket(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, log formula says %d", v, got, want)
		}
	}
	for b := 0; b < histBuckets; b++ {
		for d := sim.Time(-2); d <= 2; d++ {
			check(bucketTable.min[b] + d)
			check(sim.Time(bucketLow(b)) + d)
		}
	}
	for p := sim.Time(1); p > 0 && p <= 1e18; p *= 10 {
		for d := sim.Time(-2); d <= 2; d++ {
			check(p + d)
		}
	}
	for _, v := range []sim.Time{-5, 0, 1, 2, 1<<62 - 1, 1 << 62, math.MaxInt64} {
		check(v)
	}
	rng := sim.NewRNG(99)
	for i := 0; i < 1_000_000; i++ {
		check(sim.Time(rng.Uint64() >> uint(1+rng.Intn(63))))
	}
}

func TestRenderSurface(t *testing.T) {
	c := NewContention(4, 0)
	// Routers on a 2x2 grid; router 3 hottest.
	c.Observe(3, 1000, 0)
	c.Observe(0, 100, 0)
	out := RenderSurface(c, 2, 2, func(r int) (int, int, bool) { return r % 2, r / 2, true })
	if !strings.Contains(out, "@") || !strings.Contains(out, "scale:") {
		t.Fatalf("surface render wrong:\n%s", out)
	}
	empty := NewContention(4, 0)
	if got := RenderSurface(empty, 2, 2, func(r int) (int, int, bool) { return r % 2, r / 2, true }); !strings.Contains(got, "no contention") {
		t.Fatalf("empty render: %q", got)
	}
}
