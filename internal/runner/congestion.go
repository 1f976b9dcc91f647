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

	// cur is the latest walk of the fabric's links; prev is the walk the
	// last window closed on — the baseline of the next window's deltas, and
	// empty before the first close, so the first window counts from zero.
	cur, prev *linkWalk
	prevDrops int64

	windows []telemetry.CongWindowStatus
	dumps   []telemetry.FlightDump
}

// linkWalk is one walk of the fabric's links and the quiescent point it
// was taken at: the table's AtNs and the events executed by then. Every
// reader at the same point — a window close, its /congestion snapshot, the
// cong.* gauges of a registry snapshot, the artifact — shares the walk.
type linkWalk struct {
	network.LinkTable
	events uint64
	taken  bool
}

// links returns the fabric's link table at now, walking the ports only
// when neither kept walk was taken at this quiescent point.
func (cs *congState) links(now sim.Time) *network.LinkTable {
	events := cs.sim.Processed()
	for _, w := range [2]*linkWalk{cs.cur, cs.prev} {
		if w.taken && w.AtNs == int64(now) && w.events == events {
			return &w.LinkTable
		}
	}
	cs.sim.Net.ReadLinks(now, &cs.cur.LinkTable)
	cs.cur.events, cs.cur.taken = events, true
	return &cs.cur.LinkTable
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
	cs := &congState{sim: s, board: board, window: s.Exp.CongestionWindow, // newBuilder has applied the default
		cur: &linkWalk{}, prev: &linkWalk{}}
	s.cong = cs
	s.sampleEvery(cs.window, func(now sim.Time) {
		cs.closeWindow(now)
		cs.publish(now)
	})
}

// linkLabel names one link row: "r<router>.p<port>" for router ports,
// "nic<node>" for injection ports.
func linkLabel(ls *network.LinkStat) string {
	if ls.Router == topology.None {
		return fmt.Sprintf("nic%d", ls.Port)
	}
	return fmt.Sprintf("r%d.p%d", ls.Router, ls.Port)
}

// closeWindow folds the span since the previous close into one
// weather-map record and evaluates the anomaly triggers. Quiescent-read
// only.
func (cs *congState) closeWindow(now sim.Time) {
	prev := &cs.prev.LinkTable
	dt := now - sim.Time(prev.AtNs)
	if dt <= 0 {
		return
	}
	cur := cs.links(now)
	w := telemetry.CongWindowStatus{EndNs: int64(now)}
	for c, cl := range cur.Classes {
		if cl.Links > 0 {
			w.Util[c] = float64(cl.BusyNs-prev.Classes[c].BusyNs) / (float64(cl.Links) * float64(dt))
		}
		w.StallNs += cl.StallNs - prev.Classes[c].StallNs
	}
	hot := -1
	for i := range cur.Links {
		busy := cur.Links[i].BusyNs
		if i < len(prev.Links) {
			busy -= prev.Links[i].BusyNs
		}
		if u := float64(busy) / float64(dt); u > w.MaxLinkUtil {
			w.MaxLinkUtil, hot = u, i
		}
	}
	if hot >= 0 {
		w.MaxLink = linkLabel(&cur.Links[hot])
	}
	drops := cs.sim.Net.DroppedPkts()
	w.Drops = drops - cs.prevDrops
	cs.prevDrops = drops
	prevMaxUtil := 0.0
	if len(cs.windows) > 0 {
		prevMaxUtil = cs.windows[len(cs.windows)-1].MaxLinkUtil
	}
	cs.windows = append(cs.windows, w)
	// At most one dump per window: triggers in severity order.
	switch {
	case w.Drops >= dropBurstTrigger:
		cs.dump(now, "drop_burst", fmt.Sprintf("%d drops in window ending at %dns", w.Drops, now))
	case w.StallNs >= int64(dt):
		cs.dump(now, "credit_stall", fmt.Sprintf("%dns credit-stall in a %dns window", w.StallNs, dt))
	case w.MaxLinkUtil >= satUtilThreshold && prevMaxUtil < satUtilThreshold:
		cs.dump(now, "saturation_onset", fmt.Sprintf("link %s at %.3f utilization", w.MaxLink, w.MaxLinkUtil))
	}
	// The walk just closed on (cs.cur: prev was taken before now) becomes
	// the next baseline; the old baseline's storage takes the next walk.
	cs.cur, cs.prev = cs.prev, cs.cur
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
	cs.board.PublishCongestion(cs.status(now))
}

// status evaluates the full congestion snapshot. Quiescent-read only.
func (cs *congState) status(now sim.Time) telemetry.CongestionStatus {
	s, t := cs.sim, cs.links(now)
	st := telemetry.CongestionStatus{
		AtNs:     int64(now),
		WindowNs: int64(cs.window),
		Windows:  len(cs.windows),
		// Copied: the table's storage takes a later walk.
		VCBusyNs:    append([]int64(nil), t.VCBusyNs...),
		VCStallNs:   append([]int64(nil), t.VCStallNs...),
		AckBusyNs:   t.AckBusyNs,
		FlightDumps: len(cs.dumps),
	}
	elapsed := max(float64(now), 1) // now is whole nanoseconds
	for c, cl := range t.Classes {
		st.Classes = append(st.Classes, classStatus(c, cl, elapsed))
	}
	for _, r := range s.Net.FlightRecorders() {
		st.FlightEvents += r.Events()
	}
	s.refresh()
	st.FCT = fctStatus(s.Collector.FCT)
	st.Attribution = attribStatus(s.Collector.Attrib, t.AckBusyNs)
	tail := cs.windows
	if len(tail) > congRecentWindows {
		tail = tail[len(tail)-congRecentWindows:]
	}
	st.Recent = tail
	return st
}

// classStatus renders one link class's cumulative aggregate.
func classStatus(class int, cl network.ClassStat, elapsedNs float64) telemetry.CongClassStatus {
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
	st := cs.status(now)
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
	elapsed := max(float64(now), 1) // now is whole nanoseconds
	links := cs.links(now).Links
	for i := range links {
		ls := &links[i]
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
