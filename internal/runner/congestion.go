package runner

import (
	"fmt"
	"sort"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Congestion observability sampling. Like the live-status plane, it is one
// body under sampleEvery (status.go): it runs once per window of virtual
// time at a quiescent point — exactly on the boundary of a serial run, at
// the first barrier at or past it of a sharded one, where the deltas cover
// the exact span since the previous close. Each closed window folds the
// fabric's per-port congestion accounts (network/congestion.go) into one
// weather map record — per-class utilization, the hottest link, drop and
// credit-stall deltas — then evaluates the anomaly triggers that dump the
// flight-recorder rings. A simulation built without Experiment.Congestion
// attaches no sampler and allocates none of this state.

// DefaultCongestion, when set, switches on congestion observability for
// every simulation built without an explicit Experiment.Congestion — the
// -congestion analogue of DefaultTelemetry for the experiment registry.
var DefaultCongestion bool

// DefaultCongestionWindow overrides the weather-map window used with
// DefaultCongestion; 0 selects the 10µs default.
var DefaultCongestionWindow sim.Time

const (
	// defaultCongestionWindow is the weather-map cadence when none is
	// given: 10µs of virtual time.
	defaultCongestionWindow sim.Time = 10_000
	// Default flow-class thresholds (overridden from the heavy-tail CDF
	// quantiles when one is installed): mice are RPC-scale messages,
	// elephants megabyte-scale bulk.
	defaultMiceMaxBytes     = 16 << 10
	defaultElephantMinBytes = 1 << 20
	// flightRingCap bounds each router's flight-recorder ring.
	flightRingCap = 32
	// maxFlightDumps bounds anomaly dumps per run; congRecentWindows bounds
	// the /congestion recent-window tail.
	maxFlightDumps    = 16
	congRecentWindows = 8
	// Trigger thresholds: a drop burst within one window, a cumulative
	// credit-stall delta of at least one full window, or the hottest link
	// crossing saturation.
	dropBurstTrigger = 8
	satUtilThreshold = 0.95
)

// congState is the per-simulation congestion sampling state.
type congState struct {
	sim    *Sim
	board  *telemetry.Board
	window sim.Time

	// Window-delta baselines, updated at each close.
	lastClose     sim.Time
	prevBusy      []int64 // per link, CongLinkStats order (static per run)
	prevClassBusy [network.NumLinkClasses]int64
	prevStall     int64
	prevDrops     int64
	prevMaxUtil   float64

	windows []telemetry.CongWindowStatus
	dumps   []telemetry.FlightDump
}

// enableCongestion turns on the per-port accounting consumers: FCT
// collection on every shard collector and one flight recorder per shard.
// Runs before controller installation so the controllers can resolve their
// recorder handles.
func (s *Sim) enableCongestion() {
	routers := s.Net.Topo.NumRouters()
	recs := make([]*telemetry.FlightRecorder, len(s.Net.Shards))
	for i, sh := range s.Net.Shards {
		if sh.Collector != nil {
			sh.Collector.EnableCongestion(defaultMiceMaxBytes, defaultElephantMinBytes)
		}
		recs[i] = telemetry.NewFlightRecorder(routers, flightRingCap)
	}
	s.Net.AttachFlightRecorders(recs)
	s.logConfig("congestion window=%d", s.Exp.CongestionWindow)
}

// attachCongestion wires the window sampler. Runs even without a board —
// the windows feed the artifact and report; publishing is just one extra
// consumer.
func (s *Sim) attachCongestion(board *telemetry.Board) {
	if !s.Net.CongestionEnabled() {
		return
	}
	cs := &congState{sim: s, board: board, window: s.Exp.CongestionWindow} // newBuilder has applied the default
	s.cong = cs
	s.sampleEvery(cs.window, func(now sim.Time) {
		cs.closeWindow(now)
		cs.publish(now)
	})
}

// linkLabel names one link row: "r<router>.p<port>" for router ports,
// "nic<node>" for injection ports.
func linkLabel(ls network.CongLinkStat) string {
	if ls.Router == topology.None {
		return fmt.Sprintf("nic%d", ls.Port)
	}
	return fmt.Sprintf("r%d.p%d", ls.Router, ls.Port)
}

// closeWindow folds the span (lastClose, now] into one weather-map record
// and evaluates the anomaly triggers. Quiescent-read only.
func (cs *congState) closeWindow(now sim.Time) {
	dt := now - cs.lastClose
	if dt <= 0 {
		return
	}
	net := cs.sim.Net
	snap := net.CongSnapshotAt(now)
	links := net.CongLinkStats(now)
	if cs.prevBusy == nil {
		cs.prevBusy = make([]int64, len(links))
	}
	util := make([]float64, network.NumLinkClasses)
	for c := 0; c < network.NumLinkClasses; c++ {
		cl := snap.Classes[c]
		if cl.Links > 0 {
			util[c] = float64(cl.BusyNs-cs.prevClassBusy[c]) / (float64(cl.Links) * float64(dt))
		}
		cs.prevClassBusy[c] = cl.BusyNs
	}
	maxUtil, maxLink := 0.0, ""
	for i := range links {
		u := float64(links[i].BusyNs-cs.prevBusy[i]) / float64(dt)
		if u > maxUtil {
			maxUtil, maxLink = u, linkLabel(links[i])
		}
		cs.prevBusy[i] = links[i].BusyNs
	}
	var stall int64
	for _, v := range snap.VCStallNs {
		stall += v
	}
	stallDelta := stall - cs.prevStall
	cs.prevStall = stall
	drops := net.DroppedPkts()
	dropDelta := drops - cs.prevDrops
	cs.prevDrops = drops
	cs.windows = append(cs.windows, telemetry.CongWindowStatus{
		EndNs: int64(now), Util: util,
		MaxLinkUtil: maxUtil, MaxLink: maxLink,
		Drops: dropDelta, StallNs: stallDelta,
	})
	// At most one dump per window: triggers in severity order.
	switch {
	case dropDelta >= dropBurstTrigger:
		cs.dump(now, "drop_burst", fmt.Sprintf("%d drops in window ending at %dns", dropDelta, now))
	case stallDelta >= int64(dt):
		cs.dump(now, "credit_stall", fmt.Sprintf("%dns credit-stall in a %dns window", stallDelta, dt))
	case maxUtil >= satUtilThreshold && cs.prevMaxUtil < satUtilThreshold:
		cs.dump(now, "saturation_onset", fmt.Sprintf("link %s at %.3f utilization", maxLink, maxUtil))
	}
	cs.prevMaxUtil = maxUtil
	cs.lastClose = now
}

// dump snapshots every shard's flight-recorder rings into one
// time-ordered anomaly dump, then clears the rings so consecutive dumps
// hold disjoint histories. Capped at maxFlightDumps per run.
func (cs *congState) dump(now sim.Time, trigger, detail string) {
	if len(cs.dumps) >= maxFlightDumps {
		return
	}
	var evs []telemetry.FlightEvent
	for _, r := range cs.sim.Net.FlightRecorders() {
		evs = append(evs, r.Snapshot()...)
		r.Reset()
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtNs < evs[j].AtNs })
	cs.dumps = append(cs.dumps, telemetry.FlightDump{
		AtNs: int64(now), Trigger: trigger, Detail: detail, Events: evs,
	})
}

// publish assembles and publishes the /congestion snapshot (no-op on a
// nil board — PublishCongestion is nil-safe).
func (cs *congState) publish(now sim.Time) {
	if cs.board == nil {
		return
	}
	cs.board.PublishCongestion(cs.sim.congStatus(now, cs))
}

// congStatus evaluates the full congestion snapshot. Quiescent-read only.
func (s *Sim) congStatus(now sim.Time, cs *congState) telemetry.CongestionStatus {
	snap := s.Net.CongSnapshotAt(now)
	st := telemetry.CongestionStatus{
		AtNs:        int64(now),
		WindowNs:    int64(cs.window),
		Windows:     len(cs.windows),
		VCBusyNs:    snap.VCBusyNs,
		VCStallNs:   snap.VCStallNs,
		AckBusyNs:   snap.AckBusyNs,
		FlightDumps: len(cs.dumps),
	}
	elapsed := float64(now)
	if elapsed <= 0 {
		elapsed = 1
	}
	for c := 0; c < network.NumLinkClasses; c++ {
		st.Classes = append(st.Classes, classStatus(c, snap.Classes[c], elapsed))
	}
	for _, r := range s.Net.FlightRecorders() {
		st.FlightEvents += r.Events()
	}
	s.refresh()
	st.FCT = fctStatus(s.Collector.FCT)
	st.Attribution = attribStatus(s.Collector.Attrib, snap.AckBusyNs)
	tail := cs.windows
	if len(tail) > congRecentWindows {
		tail = tail[len(tail)-congRecentWindows:]
	}
	st.Recent = tail
	return st
}

// classStatus renders one link class's cumulative aggregate.
func classStatus(class int, cl network.CongClassTotals, elapsedNs float64) telemetry.CongClassStatus {
	cc := telemetry.CongClassStatus{
		Class: network.LinkClassNames[class], Links: cl.Links,
		TxBytes: cl.TxBytes, StallNs: cl.StallNs, QueuedBytes: cl.QueuedBytes,
	}
	if cl.Links > 0 {
		cc.Utilization = float64(cl.BusyNs) / (float64(cl.Links) * elapsedNs)
		cc.AvgQueueBytes = float64(cl.OccByteNs) / (float64(cl.Links) * elapsedNs)
	}
	if cl.DeqPkts > 0 {
		cc.AvgWaitNs = float64(cl.WaitNs) / float64(cl.DeqPkts)
	}
	return cc
}

// fctStatus renders the per-flow-class completion summaries (nil tracker
// or no completed messages yields an empty list).
func fctStatus(f *metrics.FCTStats) []telemetry.FlowClassStatus {
	if f == nil {
		return nil
	}
	var out []telemetry.FlowClassStatus
	for i := range f.Classes {
		cl := &f.Classes[i]
		if cl.Count == 0 {
			continue
		}
		out = append(out, telemetry.FlowClassStatus{
			Class: metrics.FlowClassNames[i], Count: cl.Count, Bytes: cl.Bytes,
			FCTP50Ns:    cl.FCT.Quantile(0.5),
			FCTP99Ns:    cl.FCT.Quantile(0.99),
			SlowdownP50: cl.Slowdown.Quantile(0.5) / 1000,
			SlowdownP99: cl.Slowdown.Quantile(0.99) / 1000,
		})
	}
	return out
}

// attribStatus renders the latency-attribution means (nil until the first
// delivery). ackBusyNs is the fabric's ACK-class serialization burden,
// amortized per delivered packet.
func attribStatus(a metrics.Attribution, ackBusyNs int64) *telemetry.AttributionStatus {
	if a.Pkts == 0 {
		return nil
	}
	p := float64(a.Pkts)
	st := &telemetry.AttributionStatus{
		Pkts:        a.Pkts,
		MeanTotalNs: float64(a.TotalNs) / p,
		MeanQueueNs: float64(a.QueueNs) / p,
		MeanSerNs:   float64(a.SerNs) / p,
		MeanAckNs:   float64(ackBusyNs) / p,
		MeanPropNs:  float64(a.TotalNs-a.QueueNs-a.SerNs) / p,
		DetourPkts:  a.DetourPkts,
	}
	if a.DetourPkts > 0 {
		st.DetourMeanNs = float64(a.DetourNs) / float64(a.DetourPkts)
	}
	return st
}

// attribGauge adapts one attribution field into a registry gauge summing
// across shard collectors at snapshot time.
func (s *Sim) attribGauge(get func(a *metrics.Attribution) int64) func() int64 {
	net := s.Net
	return func() int64 {
		var t int64
		for _, c := range net.ShardCollectors() {
			if c != nil {
				t += get(&c.Attrib)
			}
		}
		return t
	}
}

// setFCTThresholds re-derives the flow-class cutoffs on every shard
// collector — called by InstallHeavyTail so classes follow the installed
// CDF (mice below its median, elephants above its 90th percentile) rather
// than the fixed defaults.
func (s *Sim) setFCTThresholds(miceMax, elephantMin int64) {
	for _, c := range s.Net.ShardCollectors() {
		if c != nil && c.FCT != nil {
			c.FCT.MiceMaxBytes = miceMax
			c.FCT.ElephantMinBytes = elephantMin
		}
	}
}

// CongLinkReport is one per-link row of the congestion artifact.
type CongLinkReport struct {
	Link          string  `json:"link"`
	Class         string  `json:"class"`
	Utilization   float64 `json:"utilization"`
	TxBytes       int64   `json:"tx_bytes"`
	DeqPkts       int64   `json:"deq_pkts"`
	AvgWaitNs     float64 `json:"avg_wait_ns"`
	AvgQueueBytes float64 `json:"avg_queue_bytes"`
	StallNs       int64   `json:"stall_ns"`
}

// CongArtifactSchema identifies the congestion artifact format.
const CongArtifactSchema = "prdrb-congestion-v1"

// CongArtifact is the JSON artifact `prdrbsim -congestion-out` writes and
// `prdrbtrace congestion` renders into the report and CSVs. Everything in
// it derives from virtual-time state at quiescent points, so two
// identical-seed runs produce byte-identical artifacts.
type CongArtifact struct {
	Schema   string `json:"schema"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards"`
	Topology string `json:"topology"`
	AtNs     int64  `json:"at_ns"`
	WindowNs int64  `json:"window_ns"`

	Classes   []telemetry.CongClassStatus `json:"classes"`
	VCBusyNs  []int64                     `json:"vc_busy_ns"`
	VCStallNs []int64                     `json:"vc_stall_ns"`
	AckBusyNs int64                       `json:"ack_busy_ns"`

	FCT         []telemetry.FlowClassStatus  `json:"fct,omitempty"`
	Attribution *telemetry.AttributionStatus `json:"attribution,omitempty"`

	Windows []telemetry.CongWindowStatus `json:"windows,omitempty"`
	Links   []CongLinkReport             `json:"links,omitempty"`

	FlightDumps  int   `json:"flight_dumps"`
	FlightEvents int64 `json:"flight_events"`
}

// CongestionArtifact assembles the full artifact at the current quiescent
// point. Errors unless the simulation was built with congestion
// observability on.
func (s *Sim) CongestionArtifact() (*CongArtifact, error) {
	cs := s.cong
	if cs == nil {
		return nil, fmt.Errorf("prdrb: congestion observability is off (build with Experiment.Congestion)")
	}
	now := s.executedTo
	if now == 0 {
		now = s.Now()
	}
	st := s.congStatus(now, cs)
	a := &CongArtifact{
		Schema: CongArtifactSchema,
		Policy: string(s.Exp.Policy),
		Seed:   s.Exp.Seed,
		Shards: s.Exp.Shards,
		Topology: fmt.Sprintf("%s/r%d/t%d", s.Net.Topo.Name(),
			s.Net.Topo.NumRouters(), s.Net.Topo.NumTerminals()),
		AtNs:         int64(now),
		WindowNs:     int64(cs.window),
		Classes:      st.Classes,
		VCBusyNs:     st.VCBusyNs,
		VCStallNs:    st.VCStallNs,
		AckBusyNs:    st.AckBusyNs,
		FCT:          st.FCT,
		Attribution:  st.Attribution,
		Windows:      cs.windows,
		FlightDumps:  len(cs.dumps),
		FlightEvents: st.FlightEvents,
	}
	elapsed := float64(now)
	if elapsed <= 0 {
		elapsed = 1
	}
	for _, ls := range s.Net.CongLinkStats(now) {
		lr := CongLinkReport{
			Link: linkLabel(ls), Class: network.LinkClassNames[ls.Class],
			Utilization:   float64(ls.BusyNs) / elapsed,
			TxBytes:       ls.TxBytes,
			DeqPkts:       ls.DeqPkts,
			AvgQueueBytes: float64(ls.OccByteNs) / elapsed,
			StallNs:       ls.StallNs,
		}
		if ls.DeqPkts > 0 {
			lr.AvgWaitNs = float64(ls.WaitNs) / float64(ls.DeqPkts)
		}
		a.Links = append(a.Links, lr)
	}
	return a, nil
}

// FlightDumps returns the anomaly dumps triggered so far (nil when
// congestion observability is off or nothing fired).
func (s *Sim) FlightDumps() []telemetry.FlightDump {
	if s.cong == nil {
		return nil
	}
	return s.cong.dumps
}
