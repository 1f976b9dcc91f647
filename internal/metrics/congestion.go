package metrics

import "prdrb/internal/sim"

// Flow-completion-time and latency-attribution accounting for the
// congestion observability subsystem. Both are off by default: a
// collector carries a nil *FCTStats until EnableCongestion is called, and
// every observation site nil-checks through the pre-resolved
// DeliveryObserver, so disabled runs pay one predictable branch and zero
// allocations.

// Flow size classes follow datacenter evaluation practice: mice (latency
// sensitive short messages), elephants (bandwidth-bound bulk transfers)
// and the medium band between them. Thresholds come from the installed
// heavy-tail CDF quantiles (runner) or fixed defaults.
const (
	FlowClassMice = iota
	FlowClassMedium
	FlowClassElephant
	NumFlowClasses
)

// FlowClassNames maps class indices to report labels.
var FlowClassNames = [NumFlowClasses]string{"mice", "medium", "elephant"}

// FlowClassStats accumulates completion metrics for one size class.
type FlowClassStats struct {
	// Count is completed messages; Bytes their summed payload.
	Count int64
	Bytes int64
	// FCT is the message completion-time distribution in nanoseconds.
	FCT *Histogram
	// Slowdown is FCT over the ideal line-rate serialization time of the
	// whole message, stored in milli-units (1000 = no slowdown) so the
	// integer histogram keeps three decimal digits of resolution.
	Slowdown *Histogram
}

// FCTStats tracks per-flow-size-class completion times.
type FCTStats struct {
	// MiceMaxBytes: messages of at most this size are mice.
	// ElephantMinBytes: messages of at least this size are elephants.
	MiceMaxBytes     int64
	ElephantMinBytes int64
	Classes          [NumFlowClasses]FlowClassStats
}

// NewFCTStats builds the tracker with the given class thresholds.
func NewFCTStats(miceMax, elephantMin int64) *FCTStats {
	f := &FCTStats{MiceMaxBytes: miceMax, ElephantMinBytes: elephantMin}
	for i := range f.Classes {
		f.Classes[i].FCT = NewHistogram()
		f.Classes[i].Slowdown = NewHistogram()
	}
	return f
}

// ClassOf returns the flow class of a message of the given payload size.
func (f *FCTStats) ClassOf(bytes int64) int {
	switch {
	case bytes <= f.MiceMaxBytes:
		return FlowClassMice
	case bytes >= f.ElephantMinBytes:
		return FlowClassElephant
	default:
		return FlowClassMedium
	}
}

// Observe records one completed message: payload size, completion time
// and the ideal (uncontended line-rate) completion time used for the
// slowdown ratio.
func (f *FCTStats) Observe(bytes int64, fct, ideal sim.Time) {
	cl := &f.Classes[f.ClassOf(bytes)]
	cl.Count++
	cl.Bytes += bytes
	cl.FCT.Observe(fct)
	if ideal > 0 {
		cl.Slowdown.Observe(sim.Time(int64(fct) * 1000 / int64(ideal)))
	}
}

// Merge folds another tracker into f (thresholds must match; the runner
// configures every shard identically).
func (f *FCTStats) Merge(o *FCTStats) {
	if o == nil {
		return
	}
	for i := range f.Classes {
		f.Classes[i].Count += o.Classes[i].Count
		f.Classes[i].Bytes += o.Classes[i].Bytes
		f.Classes[i].FCT.Merge(o.Classes[i].FCT)
		f.Classes[i].Slowdown.Merge(o.Classes[i].Slowdown)
	}
}

// Attribution splits delivered-packet end-to-end latency into where the
// time went. Queue and critical-path serialization are exact per-packet
// integrals carried in the packet header; the remainder is propagation
// (link latency plus routing delay). Detoured packets (PR-DRB alternative
// paths or fault reroutes) are accounted separately so the detour excess
// can be reported against the direct population.
type Attribution struct {
	// Pkts is delivered data packets attributed; TotalNs their summed
	// end-to-end latency.
	Pkts    int64
	TotalNs int64
	// QueueNs sums output-buffer waits; SerNs sums per-hop serialization.
	QueueNs int64
	SerNs   int64
	// DetourPkts/DetourNs account the waypoint-routed subset of the above.
	DetourPkts int64
	DetourNs   int64
}

// Observe folds one delivered packet into the attribution sums.
func (a *Attribution) Observe(total, queue, ser sim.Time, detoured bool) {
	a.Pkts++
	a.TotalNs += int64(total)
	a.QueueNs += int64(queue)
	a.SerNs += int64(ser)
	if detoured {
		a.DetourPkts++
		a.DetourNs += int64(total)
	}
}

// Merge folds another attribution account into a.
func (a *Attribution) Merge(o Attribution) {
	a.Pkts += o.Pkts
	a.TotalNs += o.TotalNs
	a.QueueNs += o.QueueNs
	a.SerNs += o.SerNs
	a.DetourPkts += o.DetourPkts
	a.DetourNs += o.DetourNs
}

// EnableCongestion switches on FCT and attribution collection with the
// given flow-class thresholds. Must be called before the run starts (the
// observation sites resolve the gate per packet, but enabling mid-run
// would split the populations).
func (c *Collector) EnableCongestion(miceMax, elephantMin int64) {
	c.FCT = NewFCTStats(miceMax, elephantMin)
}

// CongestionOn reports whether the handle's collector records FCT and
// attribution — the gate observation sites check before computing
// arguments for MessageCompleted/PacketAttributed.
func (o DeliveryObserver) CongestionOn() bool { return o.c != nil && o.c.FCT != nil }

// MessageCompleted records a fully reassembled message's completion time
// through the pre-resolved delivery handle. No-op unless congestion
// collection is enabled.
func (o DeliveryObserver) MessageCompleted(bytes int64, fct, ideal sim.Time) {
	if o.c == nil || o.c.FCT == nil {
		return
	}
	o.c.FCT.Observe(bytes, fct, ideal)
}

// PacketAttributed folds one delivered packet's latency split through the
// pre-resolved delivery handle. No-op unless congestion collection is
// enabled.
func (o DeliveryObserver) PacketAttributed(total, queue, ser sim.Time, detoured bool) {
	if o.c == nil || o.c.FCT == nil {
		return
	}
	o.c.Attrib.Observe(total, queue, ser, detoured)
}
