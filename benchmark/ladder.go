package main

import (
	"fmt"
	"runtime"
	"time"

	"prdrb"
	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/traffic"
)

// The layer ladder, built from outside: one pre-generated message schedule
// is replayed through rungs that each add one layer, so the difference
// between adjacent rungs is that layer's cost.
//
//	r0_sim      bare sim.Engine, self-rescheduling typed-event actors
//	r1_network  network.New, routing.Deterministic, nil collector, a
//	            benchmark-owned injector actor calling NIC.Send
//	r2_routing  the same with routing.Adaptive
//	r3_metrics  + metrics.NewCollector
//	r4_traffic  the injector replaced by traffic.Install*
//	r5_core     + GenerateAcks + core.Install(PRDRBConfig)
//	r6_runner   runner.New + Execute + Summarize (policy pr-drb)
//	r7_shards2  the same with Shards: 2, at GOMAXPROCS 2 and 1
//
// Each rung is re-run until rungBudget of wall time is spent on it (at
// least once, at most rungMaxRuns times) and reports its fastest run: the
// rungs are deterministic computations, so the minimum is the estimate
// least disturbed by the host.
const (
	rungBudget  = 600 * time.Millisecond
	rungMaxRuns = 8
	// bareEvents is how many events the bare-engine rung executes.
	bareEvents = 1_000_000
)

var rungNames = []string{"r1_network", "r2_routing", "r3_metrics", "r4_traffic", "r5_core", "r6_runner", "r7_shards2"}

// rung is one measured rung.
type rung struct {
	name         string
	wallS        float64
	pkts, events uint64
	mallocs      uint64
	queuePeak    int
	windows      uint64
	shardEvents  []uint64
	farOverflows uint64
	nsPerPkt     float64
	eventsPerPkt float64
	allocsPerPkt float64
	p1NsPerPkt   float64 // r7 only: GOMAXPROCS=1
}

// message is one entry of the pre-generated schedule.
type message struct {
	at    sim.Time
	dst   topology.NodeID
	bytes int
}

// schedule is the ladder's input: per source node, the messages it sends.
type schedule struct {
	perNode [][]message
	msgs    int
	pkts    uint64
}

// ladderTraffic resolves a cell's traffic source into library terms.
type ladderTraffic struct {
	spec  cellSpec
	topo  topology.Topology
	pat   traffic.Pattern
	cdf   *traffic.FlowSizeCDF
	flowS float64 // heavy-tail flow arrivals per second per node
}

func newLadderTraffic(spec cellSpec) (*ladderTraffic, error) {
	topo, err := topology.ByName(spec.Topology)
	if err != nil {
		return nil, err
	}
	lt := &ladderTraffic{spec: spec, topo: topo}
	n := topo.NumTerminals()
	switch {
	case spec.Pattern != nil:
		lt.pat, err = traffic.ByName(spec.Pattern.Pattern, n)
	case spec.Bursts != nil:
		lt.pat, err = traffic.ByName(spec.Bursts.Pattern, n)
	case spec.HeavyTail != nil:
		ht := spec.HeavyTail
		if lt.cdf, err = traffic.CDFByName(ht.CDF); err != nil {
			return nil, err
		}
		group := 2
		if d, ok := topo.(*topology.Dragonfly); ok {
			group = d.A * d.P
		}
		lt.pat = traffic.NewGroupLocal(n, group, ht.PLocal)
		lt.flowS = ht.LoadMbps * 1e6 / (8 * lt.cdf.Mean())
	default:
		err = fmt.Errorf("ladder needs a synthetic traffic cell")
	}
	if err != nil {
		return nil, err
	}
	return lt, nil
}

// windows returns the injection windows of the cell: one for pattern and
// heavy-tail traffic, one per burst for burst trains.
func (lt *ladderTraffic) windows() (wins [][2]sim.Time, rateBps float64) {
	switch s := lt.spec; {
	case s.Pattern != nil:
		return [][2]sim.Time{{s.Pattern.Start, s.Pattern.End}}, s.Pattern.RateMbps * 1e6
	case s.Bursts != nil:
		t := s.Bursts.Start
		for i := 0; i < s.Bursts.Count; i++ {
			wins = append(wins, [2]sim.Time{t, t + s.Bursts.Len})
			t += s.Bursts.Len + s.Bursts.Gap
		}
		return wins, s.Bursts.RateMbps * 1e6
	}
	return [][2]sim.Time{{lt.spec.HeavyTail.Start, lt.spec.HeavyTail.End}}, 0
}

// generate builds the schedule from the cell's seed: the same arrival
// processes traffic.Install* realise, drawn here so that rungs r1-r3 can
// replay them without the traffic layer.
func (lt *ladderTraffic) generate(packetBytes int) *schedule {
	n := lt.topo.NumTerminals()
	sc := &schedule{perNode: make([][]message, n)}
	wins, rateBps := lt.windows()
	for node := 0; node < n; node++ {
		r := sim.NewRNG(lt.spec.Seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
		src := topology.NodeID(node)
		add := func(at sim.Time, bytes int) {
			dst := lt.pat.Destination(src, r)
			if dst < 0 || dst == src {
				return
			}
			sc.perNode[node] = append(sc.perNode[node], message{at, dst, bytes})
			sc.msgs++
			frags := (bytes + packetBytes - 1) / packetBytes
			if frags == 0 {
				frags = 1
			}
			sc.pkts += uint64(frags)
		}
		if lt.cdf == nil {
			iv := sim.Time(float64(packetBytes) * 8 * 1e9 / rateBps)
			for _, w := range wins {
				for at := w[0] + sim.Time(r.Float64()*float64(iv)); at < w[1]; at += iv {
					add(at, packetBytes)
				}
			}
			continue
		}
		// Heavy tail: exponential ON periods back to back (OffMean 0),
		// Poisson flow starts inside them, sizes from the CDF.
		ht := lt.spec.HeavyTail
		ivf := 1e9 / lt.flowS
		for at := ht.Start + sim.Time(r.Float64()*ivf); at < ht.End; {
			on := sim.Time(r.Exp(float64(ht.OnMean))) + 1
			for t := at; t < at+on && t < ht.End; t += sim.Time(r.Exp(ivf)) + 1 {
				add(t, lt.cdf.Sample(r))
			}
			at += on
		}
	}
	return sc
}

// injector replays one node's slice of the schedule through its NIC.
type injector struct {
	nic  *network.NIC
	msgs []message
	next int
}

func (in *injector) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	m := in.msgs[in.next]
	in.next++
	in.nic.Send(e, m.dst, m.bytes, network.MPISend, 0)
	if in.next < len(in.msgs) {
		e.ScheduleEvent(in.msgs[in.next].at, in, 0, 0)
	}
}

func installInjectors(eng *sim.Engine, net *network.Network, sc *schedule) {
	for node, msgs := range sc.perNode {
		if len(msgs) > 0 {
			eng.ScheduleEvent(msgs[0].at, &injector{nic: net.NICs[node], msgs: msgs}, 0, 0)
		}
	}
}

// installTraffic is rung r4: the traffic layer generates and schedules the
// arrivals itself.
func (lt *ladderTraffic) installTraffic(net *network.Network) {
	rng := sim.NewRNG(lt.spec.Seed ^ 0x7a)
	switch s := lt.spec; {
	case s.Pattern != nil:
		traffic.Install(net, traffic.Spec{Pattern: lt.pat, RateBps: s.Pattern.RateMbps * 1e6,
			PacketBytes: net.Cfg.PacketBytes, Start: s.Pattern.Start, End: s.Pattern.End}, rng)
	case s.Bursts != nil:
		traffic.InstallBursts(net, []traffic.Burst{{Pattern: lt.pat, RateBps: s.Bursts.RateMbps * 1e6,
			Len: s.Bursts.Len, Gap: s.Bursts.Gap}}, s.Bursts.Start, s.Bursts.Count, net.Cfg.PacketBytes, rng)
	default:
		ht := s.HeavyTail
		traffic.InstallHeavyTail(net, traffic.HeavyTail{Pattern: lt.pat, Sizes: lt.cdf, FlowRate: lt.flowS,
			OnMean: ht.OnMean, OffMean: ht.OffMean, Start: ht.Start, End: ht.End}, rng)
	}
}

// timeRun measures one run phase: wall time and mallocs around fn, with a
// collection beforehand so the previous rung's garbage is not billed here.
func timeRun(fn func()) (wallS float64, mallocs uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return wallS, m1.Mallocs - m0.Mallocs
}

// manualRung assembles rungs r1-r5 by hand from the layers' constructors.
func (lt *ladderTraffic) manualRung(level int, sc *schedule) (rung, error) {
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = level >= 5
	var policy network.RouterPolicy = routing.Deterministic{}
	if level >= 2 && level <= 4 {
		policy = routing.Adaptive{}
	}
	var col *metrics.Collector
	if level >= 3 {
		col = metrics.NewCollector(lt.topo.NumTerminals(), lt.topo.NumRouters(), 0)
	}
	eng := sim.NewEngine()
	net, err := network.New(eng, lt.topo, cfg, policy, col)
	if err != nil {
		return rung{}, err
	}
	if level >= 5 {
		core.Install(net, core.PRDRBConfig(), lt.spec.Seed+0xd4b)
	}
	if level >= 4 {
		lt.installTraffic(net)
	} else {
		installInjectors(eng, net, sc)
	}
	r := rung{name: rungNames[level-1]}
	r.wallS, r.mallocs = timeRun(func() { eng.Run(horizon) })
	if eng.Len() != 0 {
		return r, fmt.Errorf("%s: %d events pending at the horizon", r.name, eng.Len())
	}
	r.events, r.queuePeak = eng.Processed, eng.PeakQueue()
	r.pkts = sc.pkts
	if col != nil {
		r.pkts = uint64(col.Throughput.AcceptedPkts)
		if col.Throughput.AcceptedRatio() != 1 {
			return r, fmt.Errorf("%s: lost traffic (accepted %v)", r.name, col.Throughput.AcceptedRatio())
		}
	}
	return r, nil
}

// windowCounter is the GroupProbe the sharded rung counts windows with.
type windowCounter struct{ windows uint64 }

func (w *windowCounter) WindowStart(_, _ sim.Time) { w.windows++ }
func (*windowCounter) WindowExec()                 {}
func (*windowCounter) ShardDone(int, uint64)       {}
func (*windowCounter) BarrierStart(sim.Time)       {}
func (*windowCounter) FlushStart()                 {}
func (*windowCounter) WindowEnd(int)               {}

// runnerRung is rungs r6 and r7: the cell through runner.New + Execute.
func (lt *ladderTraffic) runnerRung(name string, shards, procs int) (rung, error) {
	spec := lt.spec
	spec.Policy, spec.Shards = string(prdrb.PolicyPRDRB), shards
	b, err := buildCell(spec, nil, 0)
	if err != nil {
		return rung{}, err
	}
	var wc windowCounter
	if g := b.sim.Net.Group(); g != nil {
		g.SetProbe(&wc)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := rung{name: name}
	var res prdrb.Results
	r.wallS, r.mallocs = timeRun(func() { res = b.sim.Execute(horizon) })
	if msg := checkCell(res, pending(b.sim), nil); msg != "" {
		return r, fmt.Errorf("%s: %s", name, msg)
	}
	r.pkts, r.events, r.windows = uint64(res.DeliveredPkts), processed(b.sim), wc.windows
	for _, sh := range b.sim.Net.Shards {
		st := sh.Eng.Stats()
		r.queuePeak += st.PeakQueue
		r.farOverflows += st.FarOverflows
		r.shardEvents = append(r.shardEvents, st.Processed)
	}
	return r, nil
}

// fastest re-runs fn while the budget lasts and keeps the run with the
// least wall.
func fastest(budget time.Duration, fn func() (rung, error)) (rung, error) {
	var best rung
	start := time.Now()
	for i := 0; i < rungMaxRuns && (i == 0 || time.Since(start) < budget); i++ {
		r, err := fn()
		if err != nil {
			return r, err
		}
		if i == 0 || r.wallS < best.wallS {
			best = r
		}
	}
	return best, nil
}

func (r *rung) finish() {
	p := float64(r.pkts)
	r.nsPerPkt = r.wallS * 1e9 / p
	r.eventsPerPkt = float64(r.events) / p
	r.allocsPerPkt = float64(r.mallocs) / p
}

// ladder is the measured ladder of one shape.
type ladder struct {
	bareNsPerEvent float64
	rungs          []rung // r1..r7
	msgs           int
}

// runLadder measures every rung for the cell. Spans land in tr under one
// "ladder" parent so the traced run's timeline shows where its time went.
func runLadder(lt *ladderTraffic, smoke bool, tr *tracer) (*ladder, error) {
	budget, events := rungBudget, bareEvents
	if smoke {
		budget, events = 0, bareEvents/50
	}
	root := tr.beginCell("ladder")
	defer tr.end(root)
	sc := lt.generate(network.DefaultConfig().PacketBytes)
	ld := &ladder{msgs: sc.msgs}
	procs := benchProcs()
	for level := 1; level <= 7; level++ {
		level := level
		sp := tr.begin("ladder."+rungNames[level-1], root)
		r, err := fastest(budget, func() (rung, error) {
			switch {
			case level <= 5:
				return lt.manualRung(level, sc)
			case level == 6:
				return lt.runnerRung(rungNames[5], 0, procs)
			}
			return lt.runnerRung(rungNames[6], 2, procs)
		})
		if err == nil && level == 7 {
			var p1 rung
			if p1, err = fastest(budget, func() (rung, error) { return lt.runnerRung(rungNames[6], 2, 1) }); err == nil {
				r.p1NsPerPkt = p1.wallS * 1e9 / float64(p1.pkts)
			}
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		r.finish()
		ld.rungs = append(ld.rungs, r)
	}
	sp := tr.begin("ladder.r0_sim", root)
	ld.bareNsPerEvent = bareEngine(schedHeap, ld.rungs[5].queuePeak, events)
	tr.end(sp)
	return ld, nil
}

// Bare-engine scheduling modes.
const (
	schedHeap = iota
	schedWheel
	schedClosure
)

// bareActor reschedules itself with delays cycling through a fixed table,
// keeping the pending set at its initial size until the budget runs out.
type bareActor struct {
	delays []sim.Time
	i      int
	left   *int
	tick   sim.Handler // closure mode only
}

func (a *bareActor) next() (sim.Time, bool) {
	if *a.left <= 0 {
		return 0, false
	}
	*a.left--
	a.i++
	return a.delays[a.i%len(a.delays)], true
}

func (a *bareActor) HandleEvent(e *sim.Engine, _ uint8, _ uint64) {
	if d, ok := a.next(); ok {
		e.AfterEvent(d, a, 0, 0)
	}
}

// bareEngine times a sim.Engine doing nothing but scheduling: `pending`
// self-rescheduling actors, `events` events, in the given scheduling mode.
// The delay table mixes sub-slot, in-wheel and far delays the way a fabric
// does (header times, serialization, timers).
func bareEngine(mode, pending, events int) float64 {
	if pending < 1 {
		pending = 1
	}
	eng := sim.NewEngine()
	if mode == schedWheel {
		eng.EnableWheel()
	}
	delays := []sim.Time{296, 4096, 20, 316, 40, 4412, 296, 20_000}
	left := events
	for i := 0; i < pending; i++ {
		a := &bareActor{delays: delays, i: i, left: &left}
		if mode == schedClosure {
			a.tick = func(e *sim.Engine) {
				if d, ok := a.next(); ok {
					e.After(d, a.tick)
				}
			}
			eng.Schedule(sim.Time(i%4096), a.tick)
			continue
		}
		eng.ScheduleEvent(sim.Time(i%4096), a, 0, 0)
	}
	t0 := time.Now()
	n := eng.Run(sim.Infinity)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// barrierNsPerWindow times ShardGroup.Run over near-empty windows: one
// event per window on one shard, so the wall is the window mechanics
// (align, spawn/join, barrier hooks, ring flush) and nothing else.
func barrierNsPerWindow(windows int) float64 {
	cfg := network.DefaultConfig()
	g := sim.NewShardGroup(2, cfg.Lookahead())
	left := windows
	a := &bareActor{delays: []sim.Time{g.Window}, left: &left}
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	var wc windowCounter
	g.SetProbe(&wc)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs()))
	t0 := time.Now()
	g.Run(sim.Infinity)
	return float64(time.Since(t0).Nanoseconds()) / float64(wc.windows)
}

// layerShare is one rung-to-rung delta: the cost the rung's layer adds.
type layerShare struct {
	Layer string
	Ns    float64 // ns per packet over the rung below
	Share float64 // of r6_runner's ns per packet
}

// shares returns each rung-to-rung delta as a share of r6_runner.
func (ld *ladder) shares() []layerShare {
	var out []layerShare
	total := ld.rungs[5].nsPerPkt
	prev := 0.0
	for i := 0; i < 6; i++ {
		d := ld.rungs[i].nsPerPkt - prev
		prev = ld.rungs[i].nsPerPkt
		out = append(out, layerShare{rungNames[i], d, d / total})
	}
	return out
}

// imbalance is max over mean of the shards' event counts.
func imbalance(events []uint64) float64 {
	var sum, max uint64
	for _, e := range events {
		sum += e
		if e > max {
			max = e
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(events)) / float64(sum)
}
