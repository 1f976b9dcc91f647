package telemetry

import (
	"encoding/json"
	"net/http"
)

// Congestion status plane: the weather-map snapshot a congestion sampler
// (wired by the runner) publishes at deterministic virtual-time windows.
// Like Status, everything here is plain data — percentiles and rates are
// computed by the publisher at quiescent points, handlers only copy and
// serialize.

// CongClassStatus is one link class's cumulative aggregate (local, global,
// terminal, injection).
type CongClassStatus struct {
	Class string `json:"class"`
	Links int    `json:"links"`
	// Utilization is mean busy fraction across the class's links since the
	// run started.
	Utilization float64 `json:"utilization"`
	TxBytes     int64   `json:"tx_bytes"`
	// AvgWaitNs is mean output-buffer wait per dequeued packet.
	AvgWaitNs float64 `json:"avg_wait_ns"`
	// AvgQueueBytes is the time-averaged queue occupancy per link.
	AvgQueueBytes float64 `json:"avg_queue_bytes"`
	// StallNs sums credit-stall time across the class's links.
	StallNs int64 `json:"stall_ns"`
	// QueuedBytes is instantaneous occupancy at sample time.
	QueuedBytes int64 `json:"queued_bytes"`
}

// CongWindowStatus is one completed sampling window of the weather map.
type CongWindowStatus struct {
	EndNs int64 `json:"end_ns"`
	// Util is mean utilization over the window per link class (local,
	// global, terminal, injection), indexed like the Classes list of the
	// parent status.
	Util [4]float64 `json:"util"`
	// MaxLinkUtil is the single hottest link's utilization this window;
	// MaxLink names it ("r12.p3" or "nic7").
	MaxLinkUtil float64 `json:"max_link_util"`
	MaxLink     string  `json:"max_link"`
	// Drops and StallNs are this window's deltas.
	Drops   int64 `json:"drops"`
	StallNs int64 `json:"stall_ns"`
}

// FlowClassStatus is one flow size class's completion-time summary.
type FlowClassStatus struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes"`
	// FCT percentiles in nanoseconds.
	FCTP50Ns float64 `json:"fct_p50_ns"`
	FCTP99Ns float64 `json:"fct_p99_ns"`
	// Slowdown percentiles (completion time over ideal line-rate time,
	// 1.0 = uncontended).
	SlowdownP50 float64 `json:"slowdown_p50"`
	SlowdownP99 float64 `json:"slowdown_p99"`
}

// AttributionStatus splits mean delivered-packet latency into where the
// time went.
type AttributionStatus struct {
	Pkts        int64   `json:"pkts"`
	MeanTotalNs float64 `json:"mean_total_ns"`
	MeanQueueNs float64 `json:"mean_queue_ns"`
	MeanSerNs   float64 `json:"mean_ser_ns"`
	// MeanAckNs is the ACK-class serialization burden per delivered packet
	// (the predictive/notification overhead the fabric carries).
	MeanAckNs float64 `json:"mean_ack_overhead_ns"`
	// MeanPropNs is the remainder: propagation and cut-through.
	MeanPropNs float64 `json:"mean_propagation_ns"`
	// Detour population: packets that travelled waypointed (alternative or
	// fault-reroute) paths, and their mean end-to-end latency.
	DetourPkts   int64   `json:"detour_pkts"`
	DetourMeanNs float64 `json:"detour_mean_ns"`
}

// CongestionStatus is the full /congestion snapshot.
type CongestionStatus struct {
	Seq      uint64 `json:"seq"`
	AtNs     int64  `json:"at_ns"`
	WindowNs int64  `json:"window_ns"`
	// Windows counts completed sampling windows so far.
	Windows int               `json:"windows"`
	Classes []CongClassStatus `json:"classes"`
	// Per-VC busy/stall time summed across all links.
	VCBusyNs  []int64 `json:"vc_busy_ns"`
	VCStallNs []int64 `json:"vc_stall_ns"`
	AckBusyNs int64   `json:"ack_busy_ns"`
	// FCT carries per-flow-class completion summaries (empty until the
	// first message completes).
	FCT         []FlowClassStatus  `json:"fct,omitempty"`
	Attribution *AttributionStatus `json:"attribution,omitempty"`
	// Recent holds the last few completed windows, oldest first.
	Recent []CongWindowStatus `json:"recent_windows,omitempty"`
	// Flight recorder state: events captured in the rings and anomaly
	// dumps triggered so far.
	FlightEvents int64 `json:"flight_events"`
	FlightDumps  int   `json:"flight_dumps"`
}

// PublishCongestion stores c as the latest congestion snapshot, stamping
// its Seq.
func (b *Board) PublishCongestion(c CongestionStatus) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.congSeq++
	c.Seq = b.congSeq
	b.cong = c
	b.haveCong = true
	b.mu.Unlock()
}

// Congestion returns the most recent congestion snapshot and whether one
// was ever published.
func (b *Board) Congestion() (CongestionStatus, bool) {
	if b == nil {
		return CongestionStatus{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cong
	// Copy slices: the publisher may reuse backing arrays next tick.
	c.Classes = append([]CongClassStatus(nil), c.Classes...)
	c.VCBusyNs = append([]int64(nil), c.VCBusyNs...)
	c.VCStallNs = append([]int64(nil), c.VCStallNs...)
	c.FCT = append([]FlowClassStatus(nil), c.FCT...)
	if c.Attribution != nil {
		a := *c.Attribution
		c.Attribution = &a
	}
	c.Recent = append([]CongWindowStatus(nil), c.Recent...)
	return c, b.haveCong
}

// handleCongestion serves the latest congestion snapshot as JSON.
func (s *StatusServer) handleCongestion(w http.ResponseWriter, _ *http.Request) {
	c, ok := s.Board.Congestion()
	if !ok {
		http.Error(w, "no congestion snapshot published yet (run with congestion sampling on)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c)
}
