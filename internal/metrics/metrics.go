// Package metrics implements the evaluation metrics of thesis §4.2: the
// per-destination running average latency (Eq 4.1), the global average
// latency (Eq 4.2), throughput accounting (accepted vs offered load), the
// per-router contention-latency statistics behind the latency surface maps
// (Fig 4.7), and windowed time series used for the contention-latency
// plots (Figs 4.22, 4.26, 4.28).
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"prdrb/internal/sim"
)

// RunningAvg is the incremental mean of Eq 4.1:
//
//	L[x] = (1/x) * (l[x] + (x-1) * L[x-1])
type RunningAvg struct {
	n   int64
	avg float64
}

// Add folds one sample into the mean.
func (r *RunningAvg) Add(v float64) {
	r.n++
	r.avg += (v - r.avg) / float64(r.n)
}

// Mean returns the current mean (0 when empty).
func (r *RunningAvg) Mean() float64 { return r.avg }

// Count returns the number of samples folded in.
func (r *RunningAvg) Count() int64 { return r.n }

// NodeLatency tracks Eq 4.1 per destination node and Eq 4.2 globally.
type NodeLatency struct {
	perDst []RunningAvg
}

// NewNodeLatency sizes the tracker for n destination nodes.
func NewNodeLatency(n int) *NodeLatency {
	return &NodeLatency{perDst: make([]RunningAvg, n)}
}

// Observe records the end-to-end latency of one packet delivered to dst.
func (nl *NodeLatency) Observe(dst int, latency sim.Time) {
	nl.perDst[dst].Add(float64(latency))
}

// Global returns the global average latency of Eq 4.2 in nanoseconds:
// the mean over destinations that received traffic of their per-destination
// running averages.
func (nl *NodeLatency) Global() float64 {
	sum, n := 0.0, 0
	for i := range nl.perDst {
		if nl.perDst[i].Count() > 0 {
			sum += nl.perDst[i].Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Sample is one point of a windowed time series.
type Sample struct {
	At  sim.Time // window end
	Avg float64  // mean value within the window
	Max float64  // max value within the window
	N   int64    // samples in the window
}

// Series accumulates values into fixed windows of Window ns, emitting one
// Sample per non-empty window. It reproduces the "contention latency vs
// time" router plots.
type Series struct {
	Window  sim.Time
	samples []Sample
	curEnd  sim.Time
	curSum  float64
	curMax  float64
	curN    int64
}

// NewSeries returns a series with the given window size (> 0).
func NewSeries(window sim.Time) *Series {
	if window <= 0 {
		panic("metrics: non-positive series window")
	}
	return &Series{Window: window}
}

// Add records value v observed at time at. Values must arrive in
// nondecreasing time order (simulation order guarantees this).
func (s *Series) Add(at sim.Time, v float64) {
	if s.curN > 0 && at >= s.curEnd {
		s.flush()
	}
	if s.curN == 0 {
		s.curEnd = (at/s.Window + 1) * s.Window
	}
	s.curSum += v
	s.curN++
	if v > s.curMax {
		s.curMax = v
	}
}

func (s *Series) flush() {
	if s.curN == 0 {
		return
	}
	s.samples = append(s.samples, Sample{
		At: s.curEnd, Avg: s.curSum / float64(s.curN), Max: s.curMax, N: s.curN,
	})
	s.curSum, s.curMax, s.curN = 0, 0, 0
}

// Samples returns all closed windows plus the currently open one.
func (s *Series) Samples() []Sample {
	out := append([]Sample(nil), s.samples...)
	if s.curN > 0 {
		out = append(out, Sample{At: s.curEnd, Avg: s.curSum / float64(s.curN), Max: s.curMax, N: s.curN})
	}
	return out
}

// RouterStat aggregates contention latency observed at one router: the
// queue wait every packet spent in the router's output buffers.
type RouterStat struct {
	Wait   RunningAvg
	MaxNs  float64
	Series *Series
}

// Contention is the per-router contention-latency collector behind latency
// maps and router time-series plots.
type Contention struct {
	routers []RouterStat
}

// NewContention sizes the collector for n routers; window sets the series
// granularity (0 disables series collection).
func NewContention(n int, window sim.Time) *Contention {
	c := &Contention{routers: make([]RouterStat, n)}
	if window > 0 {
		for i := range c.routers {
			c.routers[i].Series = NewSeries(window)
		}
	}
	return c
}

// Observe records a queue wait at router r at time now.
func (c *Contention) Observe(r int, wait sim.Time, now sim.Time) {
	st := &c.routers[r]
	v := float64(wait)
	st.Wait.Add(v)
	if v > st.MaxNs {
		st.MaxNs = v
	}
	if st.Series != nil {
		st.Series.Add(now, v)
	}
}

// RouterObserver is a pre-resolved handle onto one router's contention
// stats: observation sites hold it instead of indexing through the
// collector on every sample. The zero value is invalid (Observe on it
// panics); check Valid for optional attachment.
type RouterObserver struct {
	st *RouterStat
}

// Observer returns the handle for router r.
func (c *Contention) Observer(r int) RouterObserver {
	return RouterObserver{st: &c.routers[r]}
}

// Observe records a queue wait at the handle's router at time now. It is
// equivalent to Contention.Observe on the router the handle was built for.
func (o RouterObserver) Observe(wait, now sim.Time) {
	v := float64(wait)
	o.st.Wait.Add(v)
	if v > o.st.MaxNs {
		o.st.MaxNs = v
	}
	if o.st.Series != nil {
		o.st.Series.Add(now, v)
	}
}

// SeriesOf returns the time series of router r (nil when disabled).
func (c *Contention) SeriesOf(r int) *Series { return c.routers[r].Series }

// Peak returns the router with the highest average contention latency and
// that average; (-1, 0) when nothing was observed. Ties keep the
// lowest-numbered router.
func (c *Contention) Peak() (router int, avgNs float64) {
	router = -1
	for i := range c.routers {
		if c.routers[i].Wait.Count() == 0 {
			continue
		}
		if m := c.routers[i].Wait.Mean(); router == -1 || m > avgNs {
			router, avgNs = i, m
		}
	}
	return router, avgNs
}

// GlobalAvg returns the mean contention latency over routers that saw
// traffic — the summary scalar used when comparing latency maps.
func (c *Contention) GlobalAvg() float64 {
	sum, n := 0.0, 0
	for i := range c.routers {
		if c.routers[i].Wait.Count() > 0 {
			sum += c.routers[i].Wait.Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// LatencyMap is the latency surface map of §4.2: one cell per router with
// its average buffer contention latency. Label carries the topology's
// router label (mesh coordinate or tree level/slot).
type LatencyMap struct {
	Cells []MapCell
}

// MapCell is one router's entry in a latency map.
type MapCell struct {
	Router int
	Label  string
	AvgNs  float64
	MaxNs  float64
	Count  int64
}

// BuildLatencyMap snapshots the contention collector into a map, keeping
// only routers that experienced contention (the paper's maps omit idle
// coordinates "to make the graph clearer", §4.6.2).
func BuildLatencyMap(c *Contention, label func(r int) string) *LatencyMap {
	m := &LatencyMap{}
	for i := range c.routers {
		if c.routers[i].Wait.Count() == 0 {
			continue
		}
		m.Cells = append(m.Cells, MapCell{
			Router: i,
			Label:  label(i),
			AvgNs:  c.routers[i].Wait.Mean(),
			MaxNs:  c.routers[i].MaxNs,
			Count:  c.routers[i].Wait.Count(),
		})
	}
	sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].AvgNs > m.Cells[j].AvgNs })
	return m
}

// Peak returns the highest average cell (zero cell when empty).
func (m *LatencyMap) Peak() MapCell {
	if len(m.Cells) == 0 {
		return MapCell{Router: -1}
	}
	return m.Cells[0]
}

// String renders the top of the map as a table.
func (m *LatencyMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router        avg(us)    max(us)     waits\n")
	n := len(m.Cells)
	if n > 12 {
		n = 12
	}
	for _, c := range m.Cells[:n] {
		fmt.Fprintf(&b, "%-10s %9.3f %9.3f %9d\n", c.Label, c.AvgNs/1e3, c.MaxNs/1e3, c.Count)
	}
	return b.String()
}

// Throughput tracks offered vs accepted load (§4.2): bytes injected at
// sources and bytes delivered at destinations. Under fault injection the
// fabric is no longer lossless, so dropped and unreachable traffic are
// accounted separately from the accepted stream.
type Throughput struct {
	OfferedBytes  int64
	AcceptedBytes int64
	OfferedPkts   int64
	AcceptedPkts  int64
	// DroppedPkts/DroppedBytes count packets lost on failed links.
	DroppedPkts  int64
	DroppedBytes int64
	// UnreachableMsgs counts messages refused at the source because no
	// healthy route to the destination existed at injection time.
	UnreachableMsgs int64
}

// Inject records an injected packet of size bytes.
func (t *Throughput) Inject(bytes int) {
	t.OfferedBytes += int64(bytes)
	t.OfferedPkts++
}

// Deliver records a delivered packet of size bytes.
func (t *Throughput) Deliver(bytes int) {
	t.AcceptedBytes += int64(bytes)
	t.AcceptedPkts++
}

// Drop records a packet lost on a failed link.
func (t *Throughput) Drop(bytes int) {
	t.DroppedBytes += int64(bytes)
	t.DroppedPkts++
}

// Unreachable records a message refused for lack of a healthy route.
func (t *Throughput) Unreachable() { t.UnreachableMsgs++ }

// AcceptedRatio is accepted/offered packets (1 when nothing was offered).
func (t *Throughput) AcceptedRatio() float64 {
	if t.OfferedPkts == 0 {
		return 1
	}
	return float64(t.AcceptedPkts) / float64(t.OfferedPkts)
}

// Collector bundles every per-run metric the experiments record.
type Collector struct {
	Latency      *NodeLatency
	Contention   *Contention
	Throughput   Throughput
	GlobalSeries *Series    // network-wide packet latency vs time
	Hist         *Histogram // end-to-end latency distribution (percentiles)
	// Recovery is the failure-to-recovery latency distribution: the time
	// between a source learning one of its paths died and the next
	// successful delivery acknowledgement for that destination.
	Recovery *Histogram
	// FCT holds per-flow-size-class completion stats when congestion
	// collection is enabled (nil otherwise — the gate every congestion
	// observation site checks). Attrib is the matching latency-attribution
	// account; its zero value is inert.
	FCT    *FCTStats
	Attrib Attribution
}

// NewCollector builds a collector for nodes terminals and routers switches;
// window sets time-series granularity (0 disables series).
func NewCollector(nodes, routers int, window sim.Time) *Collector {
	c := &Collector{
		Latency:    NewNodeLatency(nodes),
		Contention: NewContention(routers, window),
		Hist:       NewHistogram(),
		Recovery:   NewHistogram(),
	}
	if window > 0 {
		c.GlobalSeries = NewSeries(window)
	}
	return c
}

// PacketDelivered records a data packet's end-to-end latency.
func (c *Collector) PacketDelivered(dst int, bytes int, latency, now sim.Time) {
	c.Latency.Observe(dst, latency)
	c.Throughput.Deliver(bytes)
	c.Hist.Observe(latency)
	if c.GlobalSeries != nil {
		c.GlobalSeries.Add(now, float64(latency))
	}
}

// DeliveryObserver is a pre-resolved per-destination handle over the
// collector's delivery metrics: the sink holds the destination's running
// average directly instead of indexing the latency table per packet. The
// zero value is invalid; check Valid for optional attachment.
type DeliveryObserver struct {
	c   *Collector
	dst *RunningAvg
}

// DeliveryObserver returns the delivery handle for destination node dst.
func (c *Collector) DeliveryObserver(dst int) DeliveryObserver {
	return DeliveryObserver{c: c, dst: &c.Latency.perDst[dst]}
}

// Valid reports whether the handle is attached to a collector.
func (o DeliveryObserver) Valid() bool { return o.c != nil }

// PacketDelivered records a delivery at the handle's destination. It is
// equivalent to Collector.PacketDelivered for that destination.
func (o DeliveryObserver) PacketDelivered(bytes int, latency, now sim.Time) {
	o.dst.Add(float64(latency))
	o.c.Throughput.Deliver(bytes)
	o.c.Hist.Observe(latency)
	if o.c.GlobalSeries != nil {
		o.c.GlobalSeries.Add(now, float64(latency))
	}
}

// PacketInjected records an injected data packet.
func (c *Collector) PacketInjected(bytes int) { c.Throughput.Inject(bytes) }

// PacketDropped records a packet lost on a failed link.
func (c *Collector) PacketDropped(bytes int) { c.Throughput.Drop(bytes) }

// MessageUnreachable records a message refused at its source because the
// destination was unreachable over the healthy part of the fabric.
func (c *Collector) MessageUnreachable() { c.Throughput.Unreachable() }

// PathRecovered records one failure-to-recovery latency.
func (c *Collector) PathRecovered(d sim.Time) { c.Recovery.Observe(d) }

// QueueWait records output-buffer contention at router r.
func (c *Collector) QueueWait(r int, wait, now sim.Time) {
	c.Contention.Observe(r, wait, now)
}
