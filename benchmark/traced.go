package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// perLayer lists the metrics of single layers, produced only by the traced
// run. Layers are the repository's modules. The ladder and probe metrics
// are taken at the workload's own shape (topology and traffic), so the
// issue's ladder.ft64.* is ft64-uniform-serial's ladder.* and
// ladder.df4096.* is df4096-heavytail-serial's.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	// Bare sim.Engine (heap), pending set sized to r6_runner's queue peak.
	defs := []metricDef{{Name: "ladder.r0_sim.ns_per_event", Unit: "ns", Better: "lower"}}
	// Per rung: run-phase wall, events executed and mallocs, each per
	// delivered data packet.
	for _, r := range rungNames {
		defs = append(defs,
			metricDef{Name: "ladder." + r + ".ns_per_pkt", Unit: "ns", Better: "lower"},
			metricDef{Name: "ladder." + r + ".events_per_pkt", Unit: "count", Better: "lower"},
			metricDef{Name: "ladder." + r + ".allocs_per_pkt", Unit: "count", Better: "lower"})
	}
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ns", "ladder.r7_shards2.p1_ns_per_pkt",
		"sim.heap.ns_per_event", "sim.wheel.ns_per_event", "sim.closure.ns_per_event", "sim.barrier_ns_per_window")
	add("lower", "count", "sim.events_per_pkt", "sim.queue_peak", "sim.windows")
	add("higher", "count", "sim.events_per_window")
	add("lower", "ratio", "sim.far_overflow_share", "sim.shard_event_imbalance")
	add("lower", "%", "sim.sharded_extra_events_pct")
	add("lower", "s", "topology.build_s", "topology.partition_s")
	add("lower", "ns", "topology.minimal_ports_ns", "topology.alt_paths_ns", "topology.pathcache_hit_ns", "topology.pathcache_miss_ns")
	add("lower", "ratio", "topology.cut_edge_share")
	add("lower", "ns", "routing.output_port_ns.deterministic", "routing.output_port_ns.random",
		"routing.output_port_ns.cyclic", "routing.output_port_ns.adaptive")
	add("lower", "s", "network.build_s")
	add("lower", "count", "network.pool_peak_pkts", "network.credits_stalled", "network.predictive_acks_sent")
	add("lower", "ns", "network.header_codec_ns")
	add("lower", "s", "core.install_s")
	add("lower", "count", "core.acks_seen_per_pkt", "core.paths_opened", "core.watchdog_firings")
	add("higher", "count", "core.patterns_saved", "core.reuse_applications")
	add("higher", "ratio", "core.pattern_reuse_share")
	add("lower", "ns", "core.similarity_ns", "core.soldb_lookup_ns",
		"metrics.packet_delivered_ns", "metrics.queue_wait_ns", "metrics.hist_quantile_ns")
	add("lower", "s", "metrics.merge_collectors_s", "metrics.summarize_s", "traffic.install_s")
	add("lower", "ns", "traffic.cdf_sample_ns", "traffic.destination_ns")
	add("lower", "count", "traffic.allocs_per_msg")
	add("lower", "s", "workloads.generate_s", "trace.new_replay_s", "trace.write_read_s")
	add("higher", "1/s", "trace.events_per_wall_s")
	add("lower", "s", "runner.new_s", "runner.execute_s", "runner.summarize_s",
		"ckpt.capture_s", "ckpt.verify_s", "ckpt.resume_s")
	add("lower", "B", "ckpt.bytes")
	add("lower", "ratio", "ckpt.resume_over_fresh_ratio")
	add("lower", "%", "telemetry.trace_on_overhead_pct", "congestion.on_overhead_pct",
		"perf.on_overhead_pct", "status.on_overhead_pct")
	add("lower", "count", "gc.cycles", "gc.mallocs_per_pkt")
	add("lower", "ms", "gc.pause_total_ms")
	add("lower", "%", "gc.cpu_share_pct", "bench.trace_overhead_pct")
	add("lower", "count", "repo.nontest_go_loc")
	return append(defs, simOnly...)
}

// tracedReps is how many traced reps (and as many untraced, interleaved) the
// traced run executes: enough for the counters and the overhead figure, a
// fraction of the untraced run so the ladder and probes fit the same budget.
func (w *workload) tracedReps(seconds int) int {
	n := w.repCount(seconds) / 6
	if n < 2 {
		n = 2
	}
	return n
}

// runTraced is the separate traced run: the workload with spans around the
// calls into each layer, the layer ladder and the timed public calls at the
// workload's shape. It produces the per-layer metrics and trace.json;
// end-to-end metrics are never taken from it.
func runTraced(w *workload, o options, scale float64, hdr hostHeader, out io.Writer) (result, error) {
	tr := newTracer()
	k := w.tracedReps(o.seconds)
	if scale < 1 {
		k = 1
	}
	h := &harness{w: w, seed: o.seed, reps: 2 * k, scale: scale, tr: tr, alternate: true, setupPasses: -1}
	rr, err := h.run()
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	rr.layerCounters(tr, vals)

	ladderSpec := w.ladder(rr.in.Reps[0][0].Seed, scale)
	lt, err := newLadderTraffic(ladderSpec)
	if err != nil {
		return result{}, err
	}
	ld, err := runLadder(lt, scale < 1, tr)
	if err != nil {
		return result{}, err
	}
	ld.values(vals)

	ps := &probeSet{tr: tr, root: tr.beginCell("probes"), spec: ladderSpec, topo: lt.topo, out: vals, scale: scale}
	ps.simLayer(ld.rungs[5].queuePeak)
	ps.topologyLayer()
	ps.networkLayer() // builds the idle network the next probes share
	ps.routingLayer()
	ps.coreLayer()
	ps.metricsLayer()
	ps.trafficLayer(lt)
	ps.traceLayer()
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return result{}, err
	}
	if err := ps.ckptLayer(ladderSpec); err != nil {
		return result{}, fmt.Errorf("ckpt probe: %w", err)
	}
	ps.observerLayer(ladderSpec.Seed)
	tr.end(ps.root)
	vals["repo.nontest_go_loc"] = float64(nontestGoLOC(moduleRoot()))
	e2e := rr.endToEndValues()
	for _, d := range simOnly {
		vals[d.Name] = e2e[d.Name]
	}

	printPerLayer(out, w.name, vals, ld)
	if err := tr.write(tracePath(), hdr, w.name); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "trace %s %d spans -> %s\n", w.name, len(tr.spans), tracePath())
	for _, f := range rr.failures {
		fmt.Fprintf(out, "FAILED %s cell %s: %s\n", w.name, f.Cell, f.Check)
	}
	res := result{Correct: len(rr.failures) == 0, Attempted: rr.attempted, Failed: rr.failedCells(),
		Metrics: map[string]value{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return res, nil
}

// layerCounters fills the metrics read at the cell boundaries of the
// traced reps: counters, the runner spans, GC activity and the tracing
// overhead (odd reps are traced, even reps are not).
func (rr *runResult) layerCounters(tr *tracer, vals map[string]float64) {
	var pkts, events, acks float64
	var queuePeak, poolPeak, stalled, predAcks float64
	var opened, saved, reused, applications, watchdog float64
	var plain, traced []float64
	cells := 0
	for i, rep := range rr.timed {
		var execS, spanMs float64
		for _, c := range rep.cells {
			execS += c.execS
			spanMs += float64(c.spanNs) / 1e6
			pkts += float64(c.res.DeliveredPkts)
			events += float64(c.events)
			acks += float64(c.res.Stats.AcksSeen)
			queuePeak += float64(c.queuePeak)
			poolPeak += float64(c.poolPeak)
			stalled += float64(c.creditsStalled)
			predAcks += float64(c.predAcks)
			opened += float64(c.res.Stats.PathsOpened)
			saved += float64(c.res.Stats.PatternsSaved)
			reused += float64(c.res.Stats.PatternsReused)
			applications += float64(c.res.Stats.ReuseApplications)
			watchdog += float64(c.res.Stats.WatchdogFirings)
			cells++
		}
		if i%2 == 1 {
			traced = append(traced, execS/spanMs)
		} else {
			plain = append(plain, execS/spanMs)
		}
	}
	n := float64(cells)
	vals["sim.events_per_pkt"] = events / pkts
	vals["sim.queue_peak"] = queuePeak / n
	vals["network.pool_peak_pkts"] = poolPeak / n
	vals["network.credits_stalled"] = stalled / n
	vals["network.predictive_acks_sent"] = predAcks / n
	vals["core.acks_seen_per_pkt"] = acks / pkts
	vals["core.paths_opened"] = opened / n
	vals["core.patterns_saved"] = saved / n
	vals["core.reuse_applications"] = applications / n
	vals["core.watchdog_firings"] = watchdog / n
	if saved > 0 {
		vals["core.pattern_reuse_share"] = reused / saved
	}
	vals["runner.new_s"] = median(tr.seconds("runner.new"))
	vals["runner.execute_s"] = median(tr.seconds("runner.execute"))
	vals["runner.summarize_s"] = median(tr.seconds("runner.summarize"))
	vals["gc.cycles"] = float64(rr.gc.cycles)
	vals["gc.pause_total_ms"] = float64(rr.gc.pauseNs) / 1e6
	if rr.gc.totalCPU > 0 {
		vals["gc.cpu_share_pct"] = 100 * rr.gc.gcCPUS / rr.gc.totalCPU
	}
	vals["gc.mallocs_per_pkt"] = float64(rr.gc.mallocs) / pkts
	vals["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
}

// values fills the ladder metrics and the sharded-engine figures, which
// come from the r7_shards2 rung against its serial twin r6_runner.
func (ld *ladder) values(vals map[string]float64) {
	vals["ladder.r0_sim.ns_per_event"] = ld.bareNsPerEvent
	for _, r := range ld.rungs {
		vals["ladder."+r.name+".ns_per_pkt"] = r.nsPerPkt
		vals["ladder."+r.name+".events_per_pkt"] = r.eventsPerPkt
		vals["ladder."+r.name+".allocs_per_pkt"] = r.allocsPerPkt
	}
	r3, r4, r6, r7 := ld.rungs[2], ld.rungs[3], ld.rungs[5], ld.rungs[6]
	vals["ladder.r7_shards2.p1_ns_per_pkt"] = r7.p1NsPerPkt
	vals["sim.windows"] = float64(r7.windows)
	if r7.windows > 0 {
		vals["sim.events_per_window"] = float64(r7.events) / float64(r7.windows)
	}
	vals["sim.far_overflow_share"] = float64(r7.farOverflows) / float64(r7.events)
	vals["sim.shard_event_imbalance"] = imbalance(r7.shardEvents)
	vals["sim.sharded_extra_events_pct"] = 100 * (float64(r7.events)/float64(r6.events) - 1)
	if ld.msgs > 0 {
		vals["traffic.allocs_per_msg"] = (float64(r4.mallocs) - float64(r3.mallocs)) / float64(ld.msgs)
	}
}

// printPerLayer prints every per-layer metric, then the ladder with each
// rung-to-rung delta as a share of r6_runner.
func printPerLayer(out io.Writer, name string, vals map[string]float64, ld *ladder) {
	for _, d := range perLayer {
		if !d.appliesTo(name) {
			continue
		}
		fmt.Fprintf(out, "layer %s %s %v %s\n", name, d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "ladder %s r0_sim %.1f ns/event (bare heap engine)\n", name, ld.bareNsPerEvent)
	for _, s := range ld.shares() {
		fmt.Fprintf(out, "ladder %s %-11s delta %+9.1f ns/pkt = %+6.1f %% of r6_runner\n", name, s.Layer, s.Ns, 100*s.Share)
	}
	r6, r7 := ld.rungs[5], ld.rungs[6]
	fmt.Fprintf(out, "ladder %s r7_shards2 speed vs r6_runner: %.2fx at GOMAXPROCS=%d, %.2fx at GOMAXPROCS=1\n",
		name, r6.nsPerPkt/r7.nsPerPkt, benchProcs(), r6.nsPerPkt/r7.p1NsPerPkt)
}

// nontestGoLOC counts the lines of non-test Go source outside benchmark/:
// the ROADMAP wants code size reported beside speed.
func nontestGoLOC(root string) int {
	lines := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not count
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "benchmark" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if data, err := os.ReadFile(path); err == nil {
			lines += bytes.Count(data, []byte{'\n'})
		}
		return nil
	})
	return lines
}
