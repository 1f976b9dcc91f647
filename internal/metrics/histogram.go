package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"prdrb/internal/sim"
)

// Histogram is a log-bucketed latency histogram: buckets grow by ~26% per
// step (24 buckets per decade), giving quantile estimates within a few
// percent over the ns..s range without storing samples. The paper reports
// averages only; tail percentiles are the natural production extension —
// congestion transients that barely move the mean dominate p99.
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
	min    sim.Time
	max    sim.Time
}

const (
	histBucketsPerDecade = 24
	histDecades          = 10 // 1 ns .. 10 s
	histBuckets          = histBucketsPerDecade*histDecades + 1
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets), min: math.MaxInt64}
}

// logBucket is the bucket formula: floor(24 * log10 v), clamped to the
// bucket range.
func logBucket(v sim.Time) int {
	if v < 1 {
		v = 1
	}
	b := int(math.Log10(float64(v)) * histBucketsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketTable answers logBucket without the logarithm — a log10 per
// delivered packet was a measurable slice of a saturated run. min[b] is the
// smallest latency logBucket puts in bucket b or above; first[n] is the
// bucket of the smallest latency n bits long.
var bucketTable = func() (t struct {
	min   [histBuckets]sim.Time
	first [65]uint8
}) {
	for b := range t.min {
		// logBucket is monotone, so the smallest such latency is found by
		// bisection over the formula itself.
		lo, hi := sim.Time(1), sim.Time(1)<<62
		for lo < hi {
			if mid := lo + (hi-lo)/2; logBucket(mid) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		t.min[b] = lo
	}
	for n := 1; n < len(t.first); n++ {
		t.first[n] = uint8(logBucket(sim.Time(1) << (n - 1)))
	}
	return t
}()

// bucketOf is logBucket by table: start at the bucket of v's power of two
// and step (an octave spans seven or eight buckets) to the last bucket
// whose smallest latency does not exceed v.
func bucketOf(v sim.Time) int {
	if v < 1 {
		v = 1
	}
	b := int(bucketTable.first[bits.Len64(uint64(v))])
	for b+1 < histBuckets && bucketTable.min[b+1] <= v {
		b++
	}
	return b
}

// bucketLow returns the lower bound of bucket b in ns.
func bucketLow(b int) float64 {
	return math.Pow(10, float64(b)/histBucketsPerDecade)
}

// Observe records one latency.
func (h *Histogram) Observe(v sim.Time) {
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all recorded samples in nanoseconds.
func (h *Histogram) Sum() float64 { return h.sum }

// Export snapshots the histogram for exposition: parallel slices of bucket
// upper bounds (ns, ascending) and the cumulative count of samples at or
// below each bound, plus the total count and sample sum. Empty buckets are
// elided — the cumulative counts stay valid over any bucket subset — so a
// typical latency distribution exports a handful of lines, not the full
// 241-bucket grid.
func (h *Histogram) Export() (bounds []float64, cumulative []int64, total int64, sum float64) {
	var cum int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		bounds = append(bounds, bucketLow(b+1))
		cumulative = append(cumulative, cum)
	}
	return bounds, cumulative, h.total, h.sum
}

// Quantile returns the q-quantile (0 <= q <= 1) in nanoseconds, estimated
// at bucket granularity. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	target := int64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			// Midpoint of the bucket, clamped into the observed range.
			v := (bucketLow(b) + bucketLow(b+1)) / 2
			v = math.Max(v, float64(h.min))
			v = math.Min(v, float64(h.max))
			return v
		}
	}
	return float64(h.max)
}

// String renders the standard percentile row in microseconds.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram: empty"
	}
	return fmt.Sprintf("p50=%.2fus p90=%.2fus p99=%.2fus max=%.2fus (n=%d)",
		h.Quantile(0.5)/1e3, h.Quantile(0.9)/1e3, h.Quantile(0.99)/1e3, float64(h.max)/1e3, h.total)
}

// RenderSurface draws a latency map as a W x H character grid (the textual
// form of the paper's latency surface plots over a mesh, Figs 4.10/4.11):
// each cell shows the router's average contention latency bucketed into
// intensity glyphs, with a scale legend.
func RenderSurface(c *Contention, w, h int, coord func(router int) (x, y int, ok bool)) string {
	grid := make([][]float64, h)
	for y := range grid {
		grid[y] = make([]float64, w)
	}
	peak := 0.0
	for r := range c.routers {
		x, y, ok := coord(r)
		if !ok || x < 0 || x >= w || y < 0 || y >= h {
			continue
		}
		v := c.routers[r].Wait.Mean()
		grid[y][x] = v
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return "(no contention observed)\n"
	}
	shades := []byte(" .:-=+*#%@")
	var sb strings.Builder
	// Render with y growing downward-to-upward, matching plot orientation.
	for y := h - 1; y >= 0; y-- {
		fmt.Fprintf(&sb, "y=%d |", y)
		for x := 0; x < w; x++ {
			idx := int(grid[y][x] * float64(len(shades)-1) / peak)
			sb.WriteByte(shades[idx])
			sb.WriteByte(shades[idx]) // double width for aspect ratio
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "scale: ' '=0 .. '@'=%.2fus avg contention\n", peak/1e3)
	return sb.String()
}
