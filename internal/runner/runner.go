// Package runner assembles experiments into runnable simulations: topology,
// routing policy, network substrate, metrics, DRB-family source controllers,
// synthetic traffic, trace replay and fault plans all come together behind
// one small builder. Every consumer — the public prdrb facade, the
// experiment harness, benchmarks and examples — constructs simulations
// through this one path, so construction-order details (RNG stream
// derivation, controller installation, collector wiring) live in exactly
// one place and fixed seeds reproduce identical runs everywhere.
package runner

import (
	"fmt"
	"sort"

	"prdrb/internal/core"
	"prdrb/internal/faults"
	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/perf"
	"prdrb/internal/provision"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/traffic"
)

// Policy names the routing policy under test.
type Policy string

// The seven policies of the paper's evaluation (§4.8.4) plus minimal
// adaptive.
const (
	PolicyDeterministic Policy = "deterministic"
	PolicyRandom        Policy = "random"
	PolicyCyclic        Policy = "cyclic"
	PolicyAdaptive      Policy = "adaptive"
	PolicyDRB           Policy = "drb"
	PolicyPRDRB         Policy = "pr-drb"
	PolicyFRDRB         Policy = "fr-drb"
	PolicyPRFRDRB       Policy = "pr-fr-drb"
)

// Policies lists every supported policy name.
func Policies() []Policy {
	return []Policy{PolicyDeterministic, PolicyRandom, PolicyCyclic, PolicyAdaptive,
		PolicyDRB, PolicyPRDRB, PolicyFRDRB, PolicyPRFRDRB}
}

// IsDRBFamily reports whether the policy is source-controlled (needs ACK
// notification).
func (p Policy) IsDRBFamily() bool {
	switch p {
	case PolicyDRB, PolicyPRDRB, PolicyFRDRB, PolicyPRFRDRB:
		return true
	}
	return false
}

// Experiment describes one simulation configuration.
type Experiment struct {
	// Topology of the fabric. Defaults to the paper's 4-ary 3-tree.
	Topology topology.Topology
	// Policy under test. Defaults to PolicyDeterministic.
	Policy Policy
	// Network overrides the physical parameters; zero value selects the
	// Table 4.2/4.3 defaults.
	Network *network.Config
	// DRB overrides the policy knobs for the DRB family; zero value
	// selects the variant's defaults.
	DRB *core.Config
	// Seed drives every stochastic component.
	Seed uint64
	// SeriesWindow enables windowed time series at this granularity
	// (0 = disabled).
	SeriesWindow sim.Time
	// Shards selects the conservative-parallel engine: the topology is
	// partitioned into this many shards, each with its own event engine,
	// synchronized in lookahead-bounded time windows. 0 or 1 runs the
	// serial engine (bit-identical to the historical behaviour). Results
	// for a fixed (seed, shards) pair are deterministic and independent of
	// GOMAXPROCS; across shard counts, delivered traffic and aggregate
	// metrics agree on drained lossless runs while event interleavings may
	// differ. Trace replay (PlayTrace) requires the serial engine.
	Shards int
	// Telemetry attaches an observability bundle (event tracer + metrics
	// registry) at wiring time. Nil falls back to DefaultTelemetry; when
	// both are nil the simulation carries nil handles and tracing costs
	// nothing.
	Telemetry *telemetry.Telemetry
	// Congestion switches on the fabric congestion observability plane:
	// per-port/VC accounting, flow-completion-time percentiles, latency
	// attribution and the anomaly flight recorder. Off by default — a
	// disabled run allocates none of it and stays byte-identical to
	// historical behaviour.
	Congestion bool
	// CongestionWindow is the weather-map sampling window (0 = 10µs;
	// negative is an error).
	CongestionWindow sim.Time
}

// DefaultTelemetry, when set, is attached to every simulation built
// without an explicit Experiment.Telemetry. The CLIs set it from their
// -trace flags so deeply nested construction paths (experiment registry,
// sweeps) need no per-site plumbing.
var DefaultTelemetry *telemetry.Telemetry

// DefaultShards, when > 1, selects the conservative-parallel engine for
// every simulation built without an explicit Experiment.Shards — the
// -shards analogue of DefaultTelemetry for the experiment registry.
var DefaultShards int

// DefaultPerf, when set, attaches the wall-clock engine profiler to
// every simulation built — the -perf analogue of DefaultTelemetry. One
// profiler accumulates across a sweep's runs; the CLIs that set it force
// serial experiment execution (the profiler is bound to one simulation
// at a time).
var DefaultPerf *perf.Profiler

// Sim is an assembled simulation ready to accept workloads.
type Sim struct {
	Exp Experiment
	// Eng is the serial engine; nil when the simulation is sharded (use
	// Net.EngineForNode or Net.Group then).
	Eng *sim.Engine
	Net *network.Network
	// Collector is the run's metric view. In sharded mode it is the merge
	// of the per-shard collectors, refreshed by Summarize (and therefore
	// by Execute); read it after summarizing.
	Collector   *metrics.Collector
	Controllers []*core.Controller // nil entries for baselines
	// Telemetry is the attached observability bundle (nil when off).
	Telemetry *telemetry.Telemetry
	rng       *sim.RNG

	// Live-status plane (status.go): the board the sampler publishes into
	// (nil when off), and the cross-goroutine progress feed (nil-safe).
	status         *telemetry.Board
	live           *telemetry.LiveStats
	lastLiveEvents int64

	// perf is the attached wall-clock engine profiler (nil when off; all
	// call sites are nil-safe so disabled profiling costs nothing).
	perf *perf.Profiler

	// cong is the congestion sampling state (congestion.go; nil when the
	// observability plane is off).
	cong *congState

	// Checkpoint support (checkpoint.go): configLog records every
	// workload/fault installation in call order, making the run's full
	// configuration digestible.
	configLog []string
	// executedTo is the highest Execute horizon reached so far. A serial
	// engine parks at its last processed event, so this — not Now() — is
	// the time a checkpoint captures and a resume replays to.
	executedTo sim.Time
}

// logConfig appends one canonical line to the configuration log. Installer
// arguments are rendered with %+v so two runs configured identically
// produce identical logs (and therefore identical config digests).
func (s *Sim) logConfig(format string, args ...any) {
	s.configLog = append(s.configLog, fmt.Sprintf(format, args...))
}

// builder carries the intermediate state of simulation assembly. Each step
// resolves one layer; Build applies them in order.
type builder struct {
	exp    Experiment
	netCfg network.Config
	rp     network.RouterPolicy
	drbCfg core.Config
	useDRB bool
}

// newBuilder normalizes the experiment's defaults.
func newBuilder(exp Experiment) *builder {
	if exp.Topology == nil {
		exp.Topology = topology.NewKAryNTree(4, 3)
	}
	if exp.Policy == "" {
		exp.Policy = PolicyDeterministic
	}
	if exp.Shards == 0 {
		exp.Shards = DefaultShards
	}
	if !exp.Congestion && DefaultCongestion {
		exp.Congestion = true
	}
	if exp.Congestion && exp.CongestionWindow <= 0 {
		exp.CongestionWindow = DefaultCongestionWindow
		if exp.CongestionWindow <= 0 {
			exp.CongestionWindow = defaultCongestionWindow
		}
	}
	return &builder{exp: exp}
}

// resolvePolicy picks the router policy and the notification setting.
func (b *builder) resolvePolicy() error {
	b.netCfg = network.DefaultConfig()
	if b.exp.Network != nil {
		b.netCfg = *b.exp.Network
	}
	if b.exp.Congestion {
		b.netCfg.Congestion = true
	}
	if b.exp.Policy.IsDRBFamily() {
		// DRB adaptivity lives at the sources; routers follow the
		// multistep headers deterministically and generate notifications.
		b.rp = routing.Deterministic{}
		b.netCfg.GenerateAcks = true
		b.useDRB = true
		drbCfg, ok := core.ConfigByName(string(b.exp.Policy))
		if !ok {
			return fmt.Errorf("prdrb: no DRB config for %q", b.exp.Policy)
		}
		if b.exp.DRB != nil {
			drbCfg = *b.exp.DRB
		}
		if err := drbCfg.Validate(); err != nil {
			return err
		}
		b.drbCfg = drbCfg
		return nil
	}
	if b.exp.Shards > 1 {
		// Parallel shards consult the policy concurrently: use the
		// shard-safe variants (per-router RNG streams, presized state).
		b.rp = routing.ByNameSharded(string(b.exp.Policy), b.exp.Seed, b.exp.Topology.NumRouters())
	} else {
		b.rp = routing.ByName(string(b.exp.Policy), b.exp.Seed)
	}
	if b.rp == nil {
		return fmt.Errorf("prdrb: unknown policy %q", b.exp.Policy)
	}
	if b.exp.Network == nil {
		b.netCfg.GenerateAcks = false // baselines need no notification
	}
	return nil
}

// build assembles engine(s), collector(s), network, telemetry and
// controllers.
func (b *builder) build() (*Sim, error) {
	tel := b.exp.Telemetry
	if tel == nil {
		tel = DefaultTelemetry
	}
	if tel != nil {
		// Open the run scope before any tracer handles are resolved (shard
		// forks inherit it), so packet IDs stay unambiguous when one tracer
		// spans a sweep of runs.
		tel.Tracer.BeginRun(fmt.Sprintf("%s/seed%d", b.exp.Policy, b.exp.Seed))
	}
	s := &Sim{
		Exp:       b.exp,
		Telemetry: tel,
		rng:       sim.NewRNG(b.exp.Seed ^ 0xb5297a4d),
	}
	terms, routers := b.exp.Topology.NumTerminals(), b.exp.Topology.NumRouters()
	if b.exp.Shards > 1 {
		// Conservative-parallel build: partition routers, one engine +
		// collector + tracer fork per shard, windows bounded by the
		// fabric's minimum cross-link latency.
		assign, err := topology.Partition(b.exp.Topology, b.exp.Shards)
		if err != nil {
			return nil, err
		}
		group := sim.NewShardGroup(b.exp.Shards, b.netCfg.Lookahead())
		cols := make([]*metrics.Collector, b.exp.Shards)
		tracers := make([]*telemetry.Tracer, b.exp.Shards)
		for i := range cols {
			cols[i] = metrics.NewCollector(terms, routers, b.exp.SeriesWindow)
			if tel != nil {
				tracers[i] = tel.Tracer.Fork()
			}
		}
		net, err := network.NewSharded(group, b.exp.Topology, b.netCfg, b.rp, cols, tracers, assign)
		if err != nil {
			return nil, err
		}
		s.Net = net
		s.Collector = metrics.MergeCollectors(cols)
	} else {
		eng := sim.NewEngine()
		eng.EnableWheel()
		col := metrics.NewCollector(terms, routers, b.exp.SeriesWindow)
		net, err := network.New(eng, b.exp.Topology, b.netCfg, b.rp, col)
		if err != nil {
			return nil, err
		}
		if tel != nil {
			// Attach the tracer before controller installation: controllers
			// resolve their trace handle from the network at wiring time.
			net.SetTracer(tel.Tracer)
		}
		s.Eng = eng
		s.Net = net
		s.Collector = col
	}
	if b.exp.Congestion {
		// Before controller installation: controllers resolve their flight
		// recorder handles from the network at wiring time.
		s.enableCongestion()
	}
	if b.useDRB {
		s.Controllers = core.Install(s.Net, b.drbCfg, b.exp.Seed+0xd4b)
	}
	if tel != nil {
		s.registerStandardMetrics(tel.Registry)
	}
	s.live = DefaultLive
	s.AttachStatus(DefaultStatus, DefaultStatusEvery)
	s.attachCongestion(DefaultStatus)
	s.AttachPerf(DefaultPerf)
	return s, nil
}

// AttachPerf binds a wall-clock engine profiler to this simulation:
// sharded builds get the window/barrier probe, serial builds get
// Execute-bracketing with engine-counter folds, and — when telemetry is
// attached — the perf.* gauges and per-shard window histograms land in
// the registry for /metrics. Must be called before the simulation runs.
// No-op on nil.
func (s *Sim) AttachPerf(p *perf.Profiler) {
	if p == nil {
		return
	}
	s.perf = p
	if g := s.Net.Group(); g != nil {
		p.BindGroup(g)
	} else {
		eng := s.Eng
		p.BindSerial(func() []sim.EngineStats { return []sim.EngineStats{eng.Stats()} })
	}
	if s.Telemetry != nil {
		p.RegisterMetrics(s.Telemetry.Registry)
	}
}

// registerStandardMetrics wires the simulation's existing state into the
// registry as gauges: nothing is recorded until a snapshot is taken, so
// registration has zero hot-path cost.
func (s *Sim) registerStandardMetrics(r *telemetry.Registry) {
	net := s.Net
	// Engine gauges sum over shards; the serial network has exactly one.
	r.Gauge("engine.events_processed", func() int64 {
		var n uint64
		for _, sh := range net.Shards {
			n += sh.Eng.Processed
		}
		return int64(n)
	})
	r.Gauge("engine.queue_peak", func() int64 {
		var n int
		for _, sh := range net.Shards {
			n += sh.Eng.PeakQueue()
		}
		return int64(n)
	})
	r.Gauge("engine.freelist_len", func() int64 {
		var n int
		for _, sh := range net.Shards {
			n += sh.Eng.FreeListLen()
		}
		return int64(n)
	})
	// End-to-end and recovery latency distributions, merged across shards
	// on demand at snapshot time.
	r.Histogram("latency.e2e_ns", s.histSnapshotFn(func(c *metrics.Collector) *metrics.Histogram { return c.Hist }))
	r.Histogram("recovery.latency_ns", s.histSnapshotFn(func(c *metrics.Collector) *metrics.Histogram { return c.Recovery }))
	r.Gauge("net.packets_issued", func() int64 { i, _ := net.PacketPoolStats(); return int64(i) })
	r.Gauge("net.packet_pool_peak", func() int64 { _, p := net.PacketPoolStats(); return int64(p) })
	r.Gauge("net.credits_stalled", net.CreditsStalled)
	r.Gauge("net.dropped_pkts", net.DroppedPkts)
	r.Gauge("net.unreachable_msgs", net.UnreachableMsgs)
	r.Gauge("net.predictive_acks_sent", net.PredictiveAcksSent)
	r.Gauge("net.predictive_acks_dropped", net.PredictiveAcksDropped)
	r.Gauge("net.detoured_acks", net.DetouredAcks)
	if net.CongestionEnabled() {
		// cong.* gauges read the fabric weather map at snapshot time —
		// registry snapshots happen only at quiescent points (sampler
		// events / barriers), so the O(ports) walk is race-free and off the
		// hot path, and the gauges of one snapshot share it.
		links := func() *network.LinkTable { return s.cong.links(s.Now()) }
		for c := range network.NumLinkClasses {
			name := network.LinkClassNames[c]
			r.Gauge("cong."+name+".busy_ns", func() int64 { return links().Classes[c].BusyNs })
			r.Gauge("cong."+name+".stall_ns", func() int64 { return links().Classes[c].StallNs })
			r.Gauge("cong."+name+".queued_bytes", func() int64 { return links().Classes[c].QueuedBytes })
		}
		r.Gauge("cong.ack_busy_ns", func() int64 { return links().AckBusyNs })
		r.Gauge("cong.flight_events", func() int64 {
			var t int64
			for _, rec := range net.FlightRecorders() {
				t += rec.Events()
			}
			return t
		})
		r.Gauge("cong.attrib_pkts", s.attribGauge(func(a *metrics.Attribution) int64 { return a.Pkts }))
		r.Gauge("cong.attrib_queue_ns", s.attribGauge(func(a *metrics.Attribution) int64 { return a.QueueNs }))
		r.Gauge("cong.attrib_ser_ns", s.attribGauge(func(a *metrics.Attribution) int64 { return a.SerNs }))
		r.Gauge("cong.attrib_detour_pkts", s.attribGauge(func(a *metrics.Attribution) int64 { return a.DetourPkts }))
		for i := range metrics.NumFlowClasses {
			name := metrics.FlowClassNames[i]
			r.Gauge("fct."+name+".count", func() int64 {
				var t int64
				for _, c := range net.ShardCollectors() {
					if c != nil && c.FCT != nil {
						t += c.FCT.Classes[i].Count
					}
				}
				return t
			})
			r.Histogram("fct."+name+"_ns", s.histSnapshotFn(func(c *metrics.Collector) *metrics.Histogram {
				if c.FCT == nil {
					return nil
				}
				return c.FCT.Classes[i].FCT
			}))
			r.Histogram("fct."+name+"_slowdown_milli", s.histSnapshotFn(func(c *metrics.Collector) *metrics.Histogram {
				if c.FCT == nil {
					return nil
				}
				return c.FCT.Classes[i].Slowdown
			}))
		}
	}
	if s.Controllers != nil {
		ctls := s.Controllers
		r.Gauge("drb.soldb_size", func() int64 {
			total := 0
			for _, c := range ctls {
				if c != nil && c.DB() != nil {
					total += c.DB().Size()
				}
			}
			return int64(total)
		})
		r.Gauge("drb.paths_opened", func() int64 { return core.AggregateStats(ctls).PathsOpened })
		r.Gauge("drb.paths_closed", func() int64 { return core.AggregateStats(ctls).PathsClosed })
		r.Gauge("drb.patterns_saved", func() int64 { return core.AggregateStats(ctls).PatternsSaved })
		r.Gauge("drb.reuse_applications", func() int64 { return core.AggregateStats(ctls).ReuseApplications })
		r.Gauge("drb.watchdog_firings", func() int64 { return core.AggregateStats(ctls).WatchdogFirings })
		r.Gauge("drb.recoveries", func() int64 { return core.AggregateStats(ctls).Recoveries })
	}
}

// New builds the network, installs the routing policy and, for the DRB
// family, one source controller per node.
func New(exp Experiment) (*Sim, error) {
	if exp.CongestionWindow < 0 {
		return nil, fmt.Errorf("prdrb: congestion window %v is negative (0 selects the default)", exp.CongestionWindow)
	}
	b := newBuilder(exp)
	if err := b.resolvePolicy(); err != nil {
		return nil, err
	}
	return b.build()
}

// MustNew is New that panics on error (examples, tests).
func MustNew(exp Experiment) *Sim {
	s, err := New(exp)
	if err != nil {
		panic(err)
	}
	return s
}

// InstallFaults validates the fault plan against the topology and schedules
// its events on the simulation's engine.
func (s *Sim) InstallFaults(plan faults.Plan) (*faults.Injector, error) {
	inj, err := faults.Install(s.Net, plan)
	if err != nil {
		return nil, err
	}
	s.logConfig("faults %v", plan.Events)
	return inj, nil
}

// ParseFaults builds a fault plan from the --faults flag grammar against
// this simulation's topology, seeded by the experiment seed.
func (s *Sim) ParseFaults(spec string) (faults.Plan, error) {
	return faults.ParsePlan(spec, s.Net.Topo, s.Exp.Seed)
}

// PatternSpec schedules synthetic open-loop traffic by pattern name
// ("shuffle", "bitreversal", "transpose", "uniform").
type PatternSpec struct {
	Pattern  string
	RateMbps float64
	// Start/End bound the injection window.
	Start, End sim.Time
	// Nodes restricts the injecting sources (nil = all).
	Nodes []topology.NodeID
	// PatternNodes sets the permutation's node-space size; 0 uses the full
	// terminal count. The paper's "32 communicating nodes" fat-tree runs
	// use PatternNodes=32 with Nodes 0..31 on the 64-terminal tree.
	PatternNodes int
	// PacketBytes defaults to the network's packet size.
	PacketBytes int
}

// patternSpace resolves a PatternNodes field: 0 means every terminal, and a
// space larger than the fabric is an error — its permutation would address
// nodes that do not exist.
func (s *Sim) patternSpace(patternNodes int) (int, error) {
	terminals := s.Net.Topo.NumTerminals()
	switch {
	case patternNodes == 0:
		return terminals, nil
	case patternNodes < 0 || patternNodes > terminals:
		return 0, fmt.Errorf("prdrb: PatternNodes %d outside [0, %d], the terminals of %s",
			patternNodes, terminals, s.Net.Topo.Name())
	}
	return patternNodes, nil
}

// Limits of a traffic spec. More than maxBursts repetitions is a typo, not
// an experiment (like topology.ByName's size cap). maxTime and maxSpacing
// keep every injection time of a valid spec representable: the end of its
// last window plus the longest gap a jittered source can draw (under 64
// mean spacings) stays below sim.Infinity.
const (
	maxBursts  = 1 << 20
	maxTime    = sim.Time(1) << 61
	maxSpacing = float64(sim.Time(1) << 54)
)

// checkRate validates a per-source injection rate for packets of pkt
// bytes: it must space the packets 1 ns to maxSpacing apart — a spacing
// under 1 ns rounds to 0 and the source would never let the clock move.
// The spacing is traffic's, computed the same way; a NaN, infinite, zero
// or negative rate fails the comparison.
func checkRate(rateMbps float64, pkt int) error {
	if pkt <= 0 {
		return fmt.Errorf("prdrb: packet size %d B, want > 0", pkt)
	}
	spacing := float64(pkt) * 8 * 1e9 / (rateMbps * 1e6)
	if !(spacing >= 1 && spacing <= maxSpacing) {
		return fmt.Errorf("prdrb: rate %v Mbps spaces %d B packets %v ns apart, want a finite rate spacing them 1 to %v ns",
			rateMbps, pkt, spacing, maxSpacing)
	}
	return nil
}

// checkStart validates the time a spec starts injecting: not before the
// simulation's clock, and within maxTime.
func (s *Sim) checkStart(start sim.Time) error {
	if now := s.Now(); start < now || start > maxTime {
		return fmt.Errorf("prdrb: traffic starts at %d ns, want %d to %d ns", start, now, maxTime)
	}
	return nil
}

// checkWindow validates an injection window: a valid start and a
// non-empty window ending by maxTime.
func (s *Sim) checkWindow(start, end sim.Time) error {
	if err := s.checkStart(start); err != nil {
		return err
	}
	if end <= start || end > maxTime {
		return fmt.Errorf("prdrb: injection window [%d, %d) ns, want a non-empty window ending by %d ns", start, end, maxTime)
	}
	return nil
}

// InstallPattern schedules the synthetic traffic on the simulation.
func (s *Sim) InstallPattern(spec PatternSpec) error {
	space, err := s.patternSpace(spec.PatternNodes)
	if err != nil {
		return err
	}
	p, err := traffic.ByName(spec.Pattern, space)
	if err != nil {
		return err
	}
	pkt := spec.PacketBytes
	if pkt == 0 {
		pkt = s.Net.Cfg.PacketBytes
	}
	if err := checkRate(spec.RateMbps, pkt); err != nil {
		return err
	}
	if err := s.checkWindow(spec.Start, spec.End); err != nil {
		return err
	}
	for _, n := range spec.Nodes {
		if n < 0 || int(n) >= s.Net.Topo.NumTerminals() {
			return fmt.Errorf("prdrb: source node %d outside the %d terminals of %s", n, s.Net.Topo.NumTerminals(), s.Net.Topo.Name())
		}
	}
	if spec.Nodes == nil && space < s.Net.Topo.NumTerminals() {
		for i := 0; i < space; i++ {
			spec.Nodes = append(spec.Nodes, topology.NodeID(i))
		}
	}
	traffic.Install(s.Net, traffic.Spec{
		Pattern:     p,
		RateBps:     spec.RateMbps * 1e6,
		PacketBytes: pkt,
		Start:       spec.Start,
		End:         spec.End,
		Nodes:       spec.Nodes,
	}, s.rng.Split(0x7a))
	s.logConfig("pattern %+v", spec)
	return nil
}

// InstallHotSpot schedules fixed colliding flows (§4.5) at the given
// per-source rate within [start, end).
func (s *Sim) InstallHotSpot(flows map[topology.NodeID]topology.NodeID, rateMbps float64, start, end sim.Time) {
	var nodes []topology.NodeID
	for src := range flows {
		nodes = append(nodes, src)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	traffic.Install(s.Net, traffic.Spec{
		Pattern:     traffic.NewHotSpot(flows),
		RateBps:     rateMbps * 1e6,
		PacketBytes: s.Net.Cfg.PacketBytes,
		Start:       start,
		End:         end,
		Nodes:       nodes,
	}, s.rng.Split(0x45))
	s.logConfig("hotspot flows=%d rate=%v start=%d end=%d", len(flows), rateMbps, start, end)
}

// BurstSpec describes repeated communication bursts (Fig 2.6).
type BurstSpec struct {
	Pattern  string
	RateMbps float64
	// Len is the burst duration, Gap the compute silence after it.
	Len, Gap sim.Time
	// Count is the number of repetitions.
	Count int
	Start sim.Time
	// PatternNodes shrinks the permutation space (see PatternSpec).
	PatternNodes int
}

// burstFor checks one spec's rate, length and gap and resolves it into a
// traffic.Burst.
func (s *Sim) burstFor(spec BurstSpec) (traffic.Burst, error) {
	if err := checkRate(spec.RateMbps, s.Net.Cfg.PacketBytes); err != nil {
		return traffic.Burst{}, err
	}
	if spec.Len <= 0 || spec.Len > maxTime || spec.Gap < 0 || spec.Gap > maxTime {
		return traffic.Burst{}, fmt.Errorf("prdrb: burst length %d ns and gap %d ns, want 0 < length and 0 <= gap, both at most %d ns",
			spec.Len, spec.Gap, maxTime)
	}
	space, err := s.patternSpace(spec.PatternNodes)
	if err != nil {
		return traffic.Burst{}, err
	}
	p, err := traffic.ByName(spec.Pattern, space)
	if err != nil {
		return traffic.Burst{}, err
	}
	var nodes []topology.NodeID
	if space < s.Net.Topo.NumTerminals() {
		for i := 0; i < space; i++ {
			nodes = append(nodes, topology.NodeID(i))
		}
	}
	return traffic.Burst{
		Pattern: p,
		RateBps: spec.RateMbps * 1e6,
		Len:     spec.Len,
		Gap:     spec.Gap,
		Nodes:   nodes,
	}, nil
}

// checkTrain validates the repetitions of a burst train: 1 to maxBursts of
// them, cycling through bursts from start, must end by maxTime.
func (s *Sim) checkTrain(bursts []traffic.Burst, start sim.Time, count int) error {
	if count < 1 || count > maxBursts {
		return fmt.Errorf("prdrb: %d bursts, want 1 to %d", count, maxBursts)
	}
	if err := s.checkStart(start); err != nil {
		return err
	}
	t := start
	for rep := 0; rep < count; rep++ {
		// Len and Gap are at most maxTime each, so the sum cannot wrap.
		b := bursts[rep%len(bursts)]
		if b.Len+b.Gap > maxTime-t {
			return fmt.Errorf("prdrb: %d bursts from %d ns end past %d ns", count, start, maxTime)
		}
		t += b.Len + b.Gap
	}
	return nil
}

// InstallBursts schedules count pattern bursts and returns the time the
// last burst ends.
func (s *Sim) InstallBursts(spec BurstSpec) (sim.Time, error) {
	b, err := s.burstFor(spec)
	if err != nil {
		return 0, err
	}
	if err := s.checkTrain([]traffic.Burst{b}, spec.Start, spec.Count); err != nil {
		return 0, err
	}
	end := traffic.InstallBursts(s.Net, []traffic.Burst{b}, spec.Start, spec.Count,
		s.Net.Cfg.PacketBytes, s.rng.Split(0x6b))
	s.logConfig("bursts %+v", spec)
	return end, nil
}

// InstallVariableBursts schedules `count` bursts cycling through the given
// specs in order — the "bursty traffic with variable pattern" of Fig 2.6b,
// where each communication phase uses a different pattern. Rate/Len/Gap
// come from each spec; Start from the first. It returns the end time.
func (s *Sim) InstallVariableBursts(specs []BurstSpec, count int) (sim.Time, error) {
	if len(specs) == 0 {
		return 0, fmt.Errorf("prdrb: no burst specs")
	}
	bursts := make([]traffic.Burst, len(specs))
	for i, spec := range specs {
		b, err := s.burstFor(spec)
		if err != nil {
			return 0, err
		}
		bursts[i] = b
	}
	if err := s.checkTrain(bursts, specs[0].Start, count); err != nil {
		return 0, err
	}
	end := traffic.InstallBursts(s.Net, bursts, specs[0].Start, count,
		s.Net.Cfg.PacketBytes, s.rng.Split(0x5e))
	s.logConfig("varbursts %+v count=%d", specs, count)
	return end, nil
}

// HeavyTailSpec schedules the datacenter-style workload: ON/OFF flow
// arrivals with empirical heavy-tailed flow sizes and optional rack or
// group locality skew.
type HeavyTailSpec struct {
	// CDF names the flow-size distribution ("websearch", "datamining",
	// "cache"); MaxFlowBytes > 0 truncates its tail.
	CDF          string
	MaxFlowBytes int
	// Pattern picks destinations: "uniform" (default) or "grouplocal".
	Pattern string
	// GroupSize is the grouplocal group width in nodes; 0 derives it from
	// the topology (a dragonfly group, else one router's terminals).
	GroupSize int
	// PLocal is the grouplocal fraction of intra-group flows.
	PLocal float64
	// LoadMbps is the target mean offered load per node while ON; the flow
	// arrival rate is LoadMbps / mean flow size.
	LoadMbps float64
	// OnMean/OffMean are mean ON and OFF durations (OffMean 0 = always on).
	OnMean, OffMean sim.Time
	Start, End      sim.Time
}

// rackSize returns the default locality-group width: a full group on a
// dragonfly, otherwise the terminals of one router (the "rack" under a
// single top-of-rack switch). All topologies here attach terminals
// contiguously, so counting node 0's router-mates suffices.
func rackSize(topo topology.Topology) int {
	if d, ok := topo.(*topology.Dragonfly); ok {
		return d.A * d.P
	}
	r0, _ := topo.TerminalAttach(0)
	size := 1
	for t := 1; t < topo.NumTerminals(); t++ {
		if r, _ := topo.TerminalAttach(topology.NodeID(t)); r != r0 {
			break
		}
		size++
	}
	if size < 2 {
		size = 2
	}
	return size
}

// InstallHeavyTail schedules the heavy-tailed workload on the simulation.
func (s *Sim) InstallHeavyTail(spec HeavyTailSpec) error {
	cdf, err := traffic.CDFByName(spec.CDF)
	if err != nil {
		return err
	}
	if spec.MaxFlowBytes < 0 {
		return fmt.Errorf("prdrb: heavy-tail flow cap %d B, want >= 0", spec.MaxFlowBytes)
	}
	if spec.MaxFlowBytes > 0 {
		cdf = cdf.Truncate(float64(spec.MaxFlowBytes))
	}
	if !(spec.PLocal >= 0 && spec.PLocal <= 1) {
		return fmt.Errorf("prdrb: heavy-tail local fraction %v, want 0 to 1", spec.PLocal)
	}
	n := s.Net.Topo.NumTerminals()
	var p traffic.Pattern
	switch spec.Pattern {
	case "", "uniform":
		p = traffic.Uniform{Nodes: n}
	case "grouplocal":
		size := spec.GroupSize
		if size == 0 {
			size = rackSize(s.Net.Topo)
		}
		if size < 2 || size >= n {
			return fmt.Errorf("prdrb: heavy-tail group of %d nodes on %d terminals, want 2 to %d", size, n, n-1)
		}
		p = traffic.NewGroupLocal(n, size, spec.PLocal)
	default:
		return fmt.Errorf("prdrb: unknown heavy-tail pattern %q", spec.Pattern)
	}
	// The mean flow interval is traffic's, computed the same way, and held
	// to checkRate's range for the same reason; a NaN, infinite, zero or
	// negative load fails the comparison.
	flowRate := spec.LoadMbps * 1e6 / (8 * cdf.Mean())
	if ivf := 1e9 / flowRate; !(ivf >= 1 && ivf <= maxSpacing) {
		return fmt.Errorf("prdrb: heavy-tail load %v Mbps starts flows %v ns apart, want a finite load spacing them 1 to %v ns",
			spec.LoadMbps, ivf, maxSpacing)
	}
	// ON and OFF draws stay under 64 means, so bounding both means by
	// maxSpacing keeps every cycle time representable, like a source's gap.
	if spec.OnMean <= 0 || float64(spec.OnMean) > maxSpacing || spec.OffMean < 0 || float64(spec.OffMean) > maxSpacing {
		return fmt.Errorf("prdrb: heavy-tail ON/OFF means %d/%d ns, want ON 1 to %v ns and OFF 0 to %v ns",
			spec.OnMean, spec.OffMean, maxSpacing, maxSpacing)
	}
	if err := s.checkWindow(spec.Start, spec.End); err != nil {
		return err
	}
	if s.Net.CongestionEnabled() {
		// Flow classes track the installed distribution: mice end at its
		// median, elephants start at its 90th percentile. Keep elephants
		// strictly above mice for truncated/narrow CDFs.
		mice := cdf.Quantile(0.5)
		elephant := cdf.Quantile(0.9)
		if elephant <= mice {
			elephant = mice + 1
		}
		s.setFCTThresholds(mice, elephant)
		s.logConfig("fct-thresholds mice=%d elephant=%d", mice, elephant)
	}
	traffic.InstallHeavyTail(s.Net, traffic.HeavyTail{
		Pattern:  p,
		Sizes:    cdf,
		FlowRate: flowRate,
		OnMean:   spec.OnMean,
		OffMean:  spec.OffMean,
		Start:    spec.Start,
		End:      spec.End,
	}, s.rng.Split(0x9d))
	s.logConfig("heavytail %+v", spec)
	return nil
}

// PlayTrace prepares a logical-trace replay on the simulation (mapping nil
// = rank i on node i) and starts it at time 0. Replay drives the serial
// engine directly, so it refuses sharded simulations.
func (s *Sim) PlayTrace(tr *trace.Trace, mapping []topology.NodeID) (*trace.Replay, error) {
	if s.Net.Sharded() {
		return nil, fmt.Errorf("prdrb: trace replay requires the serial engine (shards=1), got %d shards", s.Exp.Shards)
	}
	rep, err := trace.NewReplay(s.Net, tr, mapping)
	if err != nil {
		return nil, err
	}
	rep.Start(0)
	// The digest covers the mapping and event count, not the full trace
	// content — resuming against a different trace file of identical
	// shape is the caller's responsibility to avoid.
	s.logConfig("trace events=%d mapping=%v", tr.TotalEvents(), mapping)
	return rep, nil
}

// PlayGoal prepares a dependency-graph (GOAL) replay on the simulation
// (mapping nil = rank i on node i) and starts it at time 0. Like
// PlayTrace it drives the serial engine directly, so it refuses sharded
// simulations.
func (s *Sim) PlayGoal(g *trace.Goal, mapping []topology.NodeID) (*trace.GoalReplay, error) {
	if s.Net.Sharded() {
		return nil, fmt.Errorf("prdrb: goal replay requires the serial engine (shards=1), got %d shards", s.Exp.Shards)
	}
	rep, err := trace.NewGoalReplay(s.Net, g, mapping)
	if err != nil {
		return nil, err
	}
	rep.Start(0)
	s.logConfig("goal mapping=%v", mapping)
	return rep, nil
}

// Results summarizes a finished run.
type Results struct {
	Policy Policy
	// GlobalLatencyUs is the Eq 4.2 global average packet latency in
	// microseconds.
	GlobalLatencyUs float64
	// P50Us / P99Us are end-to-end latency percentiles (microseconds) —
	// the tail view the paper's averages hide.
	P50Us, P99Us float64
	// PeakContentionUs / PeakRouter locate the hottest router (latency-map
	// peak).
	PeakContentionUs float64
	PeakRouter       string
	// AvgContentionUs averages contention latency over active routers.
	AvgContentionUs float64
	// AcceptedRatio is accepted/offered packets (1 = lossless delivery).
	AcceptedRatio float64
	// DeliveredPkts counts packets that reached their destination.
	DeliveredPkts int64
	// Stats aggregates the DRB-family controller counters (zero for
	// baselines).
	Stats core.Stats
	// SavedPatterns is the solution-database size across nodes (PR- only).
	SavedPatterns int
	// DroppedPkts counts packets lost on failed links; UnreachableMsgs
	// counts messages refused at injection for lack of any healthy route.
	// Both stay zero on fault-free runs.
	DroppedPkts     int64
	UnreachableMsgs int64
	// Recoveries counts completed failure-to-recovery cycles;
	// RecoveryP50Us / RecoveryP99Us are the recovery-latency percentiles in
	// microseconds (0 when no recovery was recorded).
	Recoveries    int64
	RecoveryP50Us float64
	RecoveryP99Us float64
	// Elapsed is the simulation clock when the summary was taken. A serial
	// engine parks its clock at the last executed event, so this is the
	// drain time; a shard group advances its barrier clock to the Execute
	// horizon, so on sharded runs it is the horizon, not the drain time.
	Elapsed sim.Time
}

// Execute runs the engine(s) until the event queues drain or horizon
// passes, then summarizes. It can be called repeatedly with growing
// horizons. Sharded simulations run their shard group (in parallel when
// GOMAXPROCS allows; the results are identical either way).
func (s *Sim) Execute(horizon sim.Time) Results {
	s.perf.RunStart()
	s.Net.Drain(horizon)
	s.perf.RunEnd()
	if horizon > s.executedTo {
		s.executedTo = horizon
	}
	s.syncLive(int64(s.Processed()), int64(s.Now()))
	if s.status != nil {
		// Closing snapshot: /status after a run is final in both modes (a
		// drained engine fires no further tick or barrier).
		s.sampleStatus(s.Now())
	}
	return s.Summarize()
}

// Now returns the current simulated time.
func (s *Sim) Now() sim.Time {
	if g := s.Net.Group(); g != nil {
		return g.Now()
	}
	return s.Eng.Now()
}

// refresh folds per-shard observation state into the run-level view: the
// merged collector and the absorbed trace buffers. Serial simulations need
// neither. Safe to call repeatedly; shard trace buffers drain into the
// parent in time order.
func (s *Sim) refresh() {
	if !s.Net.Sharded() {
		return
	}
	s.Collector = metrics.MergeCollectors(s.Net.ShardCollectors())
	if s.Telemetry != nil {
		s.Telemetry.Tracer.Absorb(s.Net.ShardTracers())
	}
}

// Summarize snapshots the current metrics without running the engine.
func (s *Sim) Summarize() Results {
	s.refresh()
	peakR, peakNs := s.Collector.Contention.Peak()
	label := ""
	if peakR >= 0 {
		label = s.Net.Topo.RouterLabel(topology.RouterID(peakR))
	}
	res := Results{
		Policy:           s.Exp.Policy,
		GlobalLatencyUs:  s.Collector.Latency.Global() / 1e3,
		P50Us:            s.Collector.Hist.Quantile(0.5) / 1e3,
		P99Us:            s.Collector.Hist.Quantile(0.99) / 1e3,
		PeakContentionUs: peakNs / 1e3,
		PeakRouter:       label,
		AvgContentionUs:  s.Collector.Contention.GlobalAvg() / 1e3,
		AcceptedRatio:    s.Collector.Throughput.AcceptedRatio(),
		DeliveredPkts:    s.Collector.Throughput.AcceptedPkts,
		DroppedPkts:      s.Net.DroppedPkts(),
		UnreachableMsgs:  s.Net.UnreachableMsgs(),
		Elapsed:          s.Now(),
	}
	if s.Collector.Recovery.Count() > 0 {
		res.RecoveryP50Us = s.Collector.Recovery.Quantile(0.5) / 1e3
		res.RecoveryP99Us = s.Collector.Recovery.Quantile(0.99) / 1e3
	}
	if s.Controllers != nil {
		res.Stats = core.AggregateStats(s.Controllers)
		res.Recoveries = res.Stats.Recoveries
		for _, c := range s.Controllers {
			if c != nil && c.DB() != nil {
				res.SavedPatterns += c.DB().Size()
			}
		}
	}
	return res
}

// ExportKnowledge snapshots the predictive controllers' solution
// databases (empty for non-predictive policies).
func (s *Sim) ExportKnowledge() *core.Knowledge {
	return core.ExportKnowledge(s.Controllers)
}

// ImportKnowledge preloads a snapshot into this simulation's controllers.
// The policy must be predictive (pr-drb or pr-fr-drb).
func (s *Sim) ImportKnowledge(k *core.Knowledge) error {
	if s.Controllers == nil {
		return fmt.Errorf("prdrb: policy %q has no controllers to preload", s.Exp.Policy)
	}
	return core.ImportKnowledge(s.Controllers, k)
}

// Map builds the latency surface map (§4.2) from the contention collector.
func (s *Sim) Map() *metrics.LatencyMap {
	s.refresh()
	return metrics.BuildLatencyMap(s.Collector.Contention, func(r int) string {
		return s.Net.Topo.RouterLabel(topology.RouterID(r))
	})
}

// MapSurface renders the latency surface as a 2-D intensity grid for 2-D
// mesh and torus topologies (the textual form of Figs 4.10/4.11); other
// topologies fall back to the tabular map.
func (s *Sim) MapSurface() string {
	s.refresh()
	if g, ok := s.Net.Topo.(*topology.Grid); ok && len(g.Dims) == 2 {
		return metrics.RenderSurface(s.Collector.Contention, g.Dims[0], g.Dims[1], func(r int) (int, int, bool) {
			c := g.CoordOf(topology.RouterID(r))
			return c[0], c[1], true
		})
	}
	return s.Map().String()
}

// Energy converts this run's measured link occupancy into an energy
// estimate and the savings an idle-gating policy would reach.
func (s *Sim) Energy(m provision.EnergyModel) provision.EnergyReport {
	var links network.LinkTable
	s.Net.ReadLinks(s.Now(), &links)
	return provision.Energy(links.Links, s.Now(), m)
}

// String renders a one-line result summary.
func (r Results) String() string {
	return fmt.Sprintf("%-14s globalLat=%9.2fus peak=%9.2fus@%-8s avgCont=%8.2fus accepted=%.3f pkts=%d",
		r.Policy, r.GlobalLatencyUs, r.PeakContentionUs, r.PeakRouter, r.AvgContentionUs, r.AcceptedRatio, r.DeliveredPkts)
}
