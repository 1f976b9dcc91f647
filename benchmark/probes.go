package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"time"

	"prdrb"
	"prdrb/internal/ckpt"
	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/perf"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/traffic"
	"prdrb/internal/workloads"
)

// Timed public calls: each probe times calls into one layer's exported API
// from here, on the workload's own shape, and records a span per probe.

// sink defeats dead-code elimination of the probed calls.
var sink int

// nsPerOp times n calls of fn and returns the mean cost of one.
func nsPerOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// secondsOf times one call.
func secondsOf(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// probeSet carries what the probes share.
type probeSet struct {
	tr   *tracer
	root int
	spec cellSpec
	topo topology.Topology
	out  map[string]float64
	// scale shrinks the probes' iteration counts for -smoke.
	scale float64
	// net is one idle serial network over topo, built by the network probe
	// and shared by the probes that only need routers and NICs to exist.
	net *network.Network
}

// n scales an iteration count, keeping enough iterations to exercise the call.
func (p *probeSet) n(full int) int {
	if v := int(float64(full) * p.scale); v > 64 {
		return v
	}
	return 64
}

// probe runs fn under a span named after the layer.
func (p *probeSet) probe(layer string, fn func()) {
	sp := p.tr.begin("probe."+layer, p.root)
	fn()
	p.tr.end(sp)
}

// pairs yields deterministic (src, dst) terminal pairs spread over the
// topology, src != dst.
func (p *probeSet) pairs(n int) [][2]topology.NodeID {
	r := sim.NewRNG(p.spec.Seed ^ 0x9b0be)
	terms := p.topo.NumTerminals()
	out := make([][2]topology.NodeID, n)
	for i := range out {
		s := r.Intn(terms)
		d := r.Intn(terms - 1)
		if d >= s {
			d++
		}
		out[i] = [2]topology.NodeID{topology.NodeID(s), topology.NodeID(d)}
	}
	return out
}

func (p *probeSet) simLayer(queuePeak int) {
	p.probe("sim", func() {
		n := p.n(300_000)
		p.out["sim.heap.ns_per_event"] = bareEngine(schedHeap, queuePeak, n)
		p.out["sim.wheel.ns_per_event"] = bareEngine(schedWheel, queuePeak, n)
		p.out["sim.closure.ns_per_event"] = bareEngine(schedClosure, queuePeak, n)
		p.out["sim.barrier_ns_per_window"] = barrierNsPerWindow(p.n(20_000))
	})
}

func (p *probeSet) topologyLayer() {
	p.probe("topology", func() {
		var topo topology.Topology
		p.out["topology.build_s"] = secondsOf(func() { topo, _ = topology.ByName(p.spec.Topology) })
		pairs := p.pairs(p.n(2048))
		buf := make([]int, 0, 64)
		p.out["topology.minimal_ports_ns"] = nsPerOp(len(pairs), func(i int) {
			r, _ := topo.TerminalAttach(pairs[i][0])
			buf = topo.MinimalPorts(r, pairs[i][1], buf)
			sink += len(buf)
		})
		const perPair = 8
		p.out["topology.alt_paths_ns"] = nsPerOp(len(pairs), func(i int) {
			sink += len(topo.AlternativePaths(pairs[i][0], pairs[i][1], perPair))
		})
		// Distinct pairs so the first pass misses and the second hits.
		seen := map[[2]topology.NodeID]bool{}
		var uniq [][2]topology.NodeID
		for _, pr := range pairs {
			if !seen[pr] {
				seen[pr] = true
				uniq = append(uniq, pr)
			}
		}
		pc := topology.NewPathCache(topo, perPair, 2*len(uniq))
		lookup := func(i int) { sink += len(pc.Paths(uniq[i][0], uniq[i][1])) }
		p.out["topology.pathcache_miss_ns"] = nsPerOp(len(uniq), lookup)
		p.out["topology.pathcache_hit_ns"] = nsPerOp(len(uniq), lookup)

		var assign []int
		p.out["topology.partition_s"] = secondsOf(func() { assign, _ = topology.Partition(topo, 2) })
		edges := 0
		for r := 0; r < topo.NumRouters(); r++ {
			for port := 0; port < topo.Radix(topology.RouterID(r)); port++ {
				if peer := topo.PortPeer(topology.RouterID(r), port); peer.IsRouter() && !peer.Unwired() {
					edges++
				}
			}
		}
		if edges > 0 && assign != nil {
			p.out["topology.cut_edge_share"] = float64(topology.CutEdges(topo, assign)) / float64(edges/2)
		}
	})
}

func (p *probeSet) routingLayer() {
	p.probe("routing", func() {
		pairs := p.pairs(p.n(4096))
		routers := p.topo.NumRouters()
		policies := []struct {
			name   string
			policy network.RouterPolicy
		}{
			{"deterministic", routing.Deterministic{}},
			{"random", routing.NewRandom(p.spec.Seed)},
			{"cyclic", routing.NewCyclicSized(routers)},
			{"adaptive", routing.Adaptive{}},
		}
		pkt := &network.Packet{Type: network.DataPacket, SizeBytes: p.net.Cfg.PacketBytes}
		for _, pol := range policies {
			pol := pol
			p.out["routing.output_port_ns."+pol.name] = nsPerOp(len(pairs), func(i int) {
				// Decide at the source's attach router: always a router the
				// packet legitimately visits, never the destination's own.
				r, _ := p.topo.TerminalAttach(pairs[i][0])
				pkt.Src, pkt.Dst = pairs[i][0], pairs[i][1]
				sink += pol.policy.OutputPort(p.net.Routers[r], pkt)
			})
		}
	})
}

func (p *probeSet) networkLayer() {
	p.probe("network", func() {
		p.out["network.build_s"] = secondsOf(func() {
			p.net = network.MustNew(sim.NewEngine(), p.topo, network.DefaultConfig(), routing.Deterministic{}, nil)
		})
		pkt := &network.Packet{Type: network.DataPacket, Src: 3, Dst: 9, SizeBytes: 1024,
			Waypoints: topology.Path{5}, MsgID: 77, FragCount: 1, Final: true}
		p.out["network.header_codec_ns"] = nsPerOp(p.n(20_000), func(int) {
			buf, err := network.EncodeHeader(pkt)
			if err != nil {
				panic(err)
			}
			q, err := network.DecodeHeader(buf)
			if err != nil {
				panic(err)
			}
			sink += int(q.Dst)
		})
	})
}

func (p *probeSet) coreLayer() {
	p.probe("core", func() {
		p.out["core.install_s"] = secondsOf(func() { core.Install(p.net, core.PRDRBConfig(), p.spec.Seed) })

		// Signatures of the size the predictive header carries.
		n := network.DefaultConfig().MaxContending
		mk := func(off int) core.Signature {
			flows := make([]network.FlowKey, n)
			for i := range flows {
				flows[i] = network.FlowKey{Src: topology.NodeID(off + i), Dst: topology.NodeID(off + i + 17)}
			}
			return core.NewSignature(flows, n)
		}
		a, b := mk(0), mk(2)
		p.out["core.similarity_ns"] = nsPerOp(p.n(50_000), func(int) {
			if core.Similarity(a, b) > 0.5 {
				sink++
			}
		})
		db := core.NewSolutionDB()
		for i := 0; i < 16; i++ {
			db.Save(1, mk(3*i), nil, 0.8, 0)
		}
		p.out["core.soldb_lookup_ns"] = nsPerOp(p.n(20_000), func(i int) {
			if db.Lookup(1, mk(3*(i%16)), 0.8) != nil {
				sink++
			}
		})
	})
}

func (p *probeSet) metricsLayer() {
	p.probe("metrics", func() {
		terms, routers := p.topo.NumTerminals(), p.topo.NumRouters()
		fill := func() *metrics.Collector {
			col := metrics.NewCollector(terms, routers, 0)
			for i, n := 0, p.n(20_000); i < n; i++ {
				col.PacketInjected(1024)
				col.PacketDelivered(i%terms, 1024, sim.Time(500+i%9000), sim.Time(i))
				col.QueueWait(i%routers, sim.Time(i%700), sim.Time(i))
			}
			return col
		}
		col := metrics.NewCollector(terms, routers, 0)
		obs := col.DeliveryObserver(1)
		p.out["metrics.packet_delivered_ns"] = nsPerOp(p.n(200_000), func(i int) {
			obs.PacketDelivered(1024, sim.Time(500+i%9000), sim.Time(i))
		})
		p.out["metrics.queue_wait_ns"] = nsPerOp(p.n(200_000), func(i int) {
			col.QueueWait(i%routers, sim.Time(i%700), sim.Time(i))
		})
		p.out["metrics.hist_quantile_ns"] = nsPerOp(p.n(2_000), func(int) {
			sink += int(col.Hist.Quantile(0.99))
		})
		parts := []*metrics.Collector{fill(), fill()}
		var merged *metrics.Collector
		p.out["metrics.merge_collectors_s"] = secondsOf(func() { merged = metrics.MergeCollectors(parts) })
		p.out["metrics.summarize_s"] = secondsOf(func() {
			_, peak := merged.Contention.Peak()
			sink += int(merged.Latency.Global() + merged.Hist.Quantile(0.5) + merged.Hist.Quantile(0.99) +
				peak + merged.Contention.GlobalAvg() + merged.Throughput.AcceptedRatio())
		})
	})
}

func (p *probeSet) trafficLayer(lt *ladderTraffic) {
	p.probe("traffic", func() {
		p.out["traffic.install_s"] = secondsOf(func() { lt.installTraffic(p.net) })
		r := sim.NewRNG(p.spec.Seed ^ 0x7caff1c)
		cdf := lt.cdf
		if cdf == nil {
			cdf = traffic.CacheCDF()
		}
		p.out["traffic.cdf_sample_ns"] = nsPerOp(p.n(100_000), func(int) { sink += cdf.Sample(r) })
		terms := p.topo.NumTerminals()
		p.out["traffic.destination_ns"] = nsPerOp(p.n(100_000), func(i int) {
			sink += int(lt.pat.Destination(topology.NodeID(i%terms), r))
		})
	})
}

// probeApp is the fixed application trace the trace/workloads probes use.
const (
	probeApp      = "lammps-chain"
	probeAppIters = 5
)

func (p *probeSet) traceLayer() {
	p.probe("trace", func() {
		iters := probeAppIters
		if p.scale < 1 {
			iters = 1
		}
		var trc *trace.Trace
		p.out["workloads.generate_s"] = secondsOf(func() {
			trc, _ = workloads.ByName(probeApp, workloads.Options{Iterations: iters})
		})
		if trc == nil {
			return
		}
		p.out["trace.write_read_s"] = secondsOf(func() {
			var buf bytes.Buffer
			if err := trace.WriteTrace(&buf, trc); err != nil {
				panic(err)
			}
			if _, err := trace.ReadTrace(&buf); err != nil {
				panic(err)
			}
		})
		ft, _ := topology.ByName("ft-4-3")
		eng := sim.NewEngine()
		net := network.MustNew(eng, ft, network.DefaultConfig(), routing.Deterministic{}, nil)
		var rep *trace.Replay
		p.out["trace.new_replay_s"] = secondsOf(func() { rep, _ = trace.NewReplay(net, trc, nil) })
		if rep == nil {
			return
		}
		rep.Start(0)
		wall := secondsOf(func() { eng.Run(60 * sim.Second) })
		if rep.Finished() {
			p.out["trace.events_per_wall_s"] = float64(trc.TotalEvents()) / wall
		}
	})
}

// ckptLayer measures the checkpoint stack on the ladder cell at mid-window:
// capture, byte-verify, and resume against a fresh run to the same time.
func (p *probeSet) ckptLayer(spec cellSpec) error {
	var err error
	p.probe("ckpt", func() {
		spec.Policy = string(prdrb.PolicyPRDRB)
		var mid prdrb.Time
		fresh := func() (*prdrb.Sim, float64, error) {
			b, err := buildCell(spec, nil, 0)
			if err != nil {
				return nil, 0, err
			}
			mid = b.sim.AlignCheckpoint(prdrb.Time(b.spanNs / 2))
			wall := secondsOf(func() { b.sim.Execute(mid) })
			return b.sim, wall, nil
		}
		var s *prdrb.Sim
		var freshS float64
		if s, freshS, err = fresh(); err != nil {
			return
		}
		var data []byte
		p.out["ckpt.capture_s"] = secondsOf(func() {
			var f *ckpt.File
			if f, err = s.CaptureCheckpoint(); err == nil {
				data = ckpt.Encode(f)
			}
		})
		if err != nil {
			return
		}
		p.out["ckpt.bytes"] = float64(len(data))
		p.out["ckpt.verify_s"] = secondsOf(func() { err = s.VerifyCheckpoint(data) })
		if err != nil {
			return
		}
		path := filepath.Join(outDir(), "probe.ckpt")
		if err = ckpt.WriteFileAtomic(path, data); err != nil {
			return
		}
		var b *built
		if b, err = buildCell(spec, nil, 0); err != nil {
			return
		}
		resumeS := secondsOf(func() { _, err = b.sim.Resume(path) })
		p.out["ckpt.resume_s"] = resumeS
		p.out["ckpt.resume_over_fresh_ratio"] = resumeS / freshS
	})
	return err
}

// observerLayer runs a reduced ft64-uniform cell with each observability
// plane switched on through explicit Experiment fields / Attach* calls and
// reports its cost over the all-off cell. Planes alternate with the base
// so host drift hits both sides.
func (p *probeSet) observerLayer(seed uint64) {
	p.probe("observers", func() {
		spec := uniformCell(seed, 0.2*p.scale, 0)
		run := func(prep func(*prdrb.Experiment), attach func(*prdrb.Sim)) float64 {
			topo, _ := prdrb.TopologyByName(spec.Topology)
			exp := prdrb.Experiment{Topology: topo, Policy: prdrb.Policy(spec.Policy), Seed: spec.Seed}
			if prep != nil {
				prep(&exp)
			}
			s := prdrb.MustNewSim(exp)
			if attach != nil {
				attach(s)
			}
			if err := s.InstallPattern(*spec.Pattern); err != nil {
				panic(err)
			}
			runtime.GC()
			return secondsOf(func() { s.Execute(horizon) })
		}
		planes := []struct {
			name   string
			prep   func(*prdrb.Experiment)
			attach func(*prdrb.Sim)
		}{
			{"telemetry.trace_on_overhead_pct", func(e *prdrb.Experiment) {
				e.Telemetry = telemetry.New(telemetry.Options{Trace: true, Sample: 64})
			}, nil},
			{"congestion.on_overhead_pct", func(e *prdrb.Experiment) { e.Congestion = true }, nil},
			{"perf.on_overhead_pct", nil, func(s *prdrb.Sim) { s.AttachPerf(perf.New(perf.Options{})) }},
			{"status.on_overhead_pct", nil, func(s *prdrb.Sim) { s.AttachStatus(telemetry.NewBoard(), 0) }},
		}
		rounds := 4
		if p.scale < 1 {
			rounds = 1
		}
		// Slot 0 is the all-off base. Each round starts one slot later, so
		// no configuration always runs right after the same neighbour.
		walls := make([][]float64, len(planes)+1)
		for r := 0; r < rounds; r++ {
			for k := range walls {
				slot := (k + r) % len(walls)
				if slot == 0 {
					walls[0] = append(walls[0], run(nil, nil))
					continue
				}
				pl := planes[slot-1]
				walls[slot] = append(walls[slot], run(pl.prep, pl.attach))
			}
		}
		base := summarize(walls[0]).Min
		for i, pl := range planes {
			p.out[pl.name] = 100 * (summarize(walls[i+1]).Min/base - 1)
		}
	})
}
