package main

import (
	rtmetrics "runtime/metrics"

	"prdrb/internal/stats"
)

// metricDef declares one metric of the benchmark. The end-to-end
// definitions are mirrored in BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the relative worsening of the median that counts as a
	// regression. One bound per metric has to cover every workload, so the
	// host-time metrics carry the sharded workloads' bound.
	Bound float64
	// only restricts a metric to the named workloads (nil = all). Driver
	// mode emits 0 where a metric is not defined.
	only []string
}

func (d metricDef) appliesTo(workload string) bool {
	if d.only == nil {
		return true
	}
	for _, w := range d.only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd lists the metrics a user of the simulator sees, measured with
// tracing off. failed_share is carried by the result's failed/attempted
// pair rather than listed here (it is 0 on a healthy tree).
var endToEnd = []metricDef{
	// Execute wall seconds per simulated millisecond (per rep: summed over cells), median over reps
	{Name: "wall_s_per_sim_ms", Unit: "s/ms", Better: "lower", Bound: 0.25},
	// delivered data packets per Execute wall second, median over reps
	{Name: "pkts_per_wall_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// 3600 / median whole-cell wall (topology + NewSim + install + Execute + Summarize)
	{Name: "cells_per_hour", Unit: "1/h", Better: "higher", Bound: 0.25},
	// median per-cell time from topology construction to the last Install*/PlayTrace call
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// MemStats.TotalAlloc delta over whole cells per delivered packet, median over reps
	{Name: "alloc_bytes_per_pkt", Unit: "B", Better: "lower", Bound: 0.20},
	// HeapAlloc after a forced GC at the end of a rep, its last Sim still referenced; median over reps
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Eq 4.2 global average latency, mean over the reps' seeds and cells (simulated time)
	{Name: "sim_latency_us_mean", Unit: "us", Better: "lower", Bound: 0.25},
	// Results.P99Us, mean over the reps' seeds and cells (simulated time)
	{Name: "sim_latency_us_p99", Unit: "us", Better: "lower", Bound: 0.20},
}

// simOnly are the two end-to-end metrics defined on a single workload. The
// driver's contract wants every listed end-to-end metric on every workload,
// so BENCHMARK.json carries them in per_layer; the report prints them with
// the end-to-end block.
var simOnly = []metricDef{
	// mean Replay.ExecutionTime over cells (simulated time)
	{Name: "sim_exec_time_us", Unit: "us", Better: "lower", only: []string{"ft64-apps-replay"}},
	// GainPct(drb, pr-drb) on global latency, mean over seeds; the model is unvalidated against the paper's absolute figures
	{Name: "sim_prdrb_gain_pct", Unit: "%", Better: "higher", only: []string{"ft64-bursts-drbfamily"}},
}

// reportedEndToEnd is every metric of the report's e2e block: the manifest's
// end-to-end metrics followed by the two single-workload ones.
func reportedEndToEnd() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), simOnly...)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues computes the end-to-end metrics of a run.
func (rr *runResult) endToEndValues() map[string]float64 {
	var wallPerMs, pktsPerS, cellWall, allocPerPkt []float64
	var lat, p99, execUs, gain []float64
	for _, rep := range rr.timed {
		var execS, spanMs, pkts, alloc float64
		var drbLat, prLat float64
		for i, c := range rep.cells {
			execS += c.execS
			spanMs += float64(c.spanNs) / 1e6
			pkts += float64(c.res.DeliveredPkts)
			alloc += float64(c.allocBytes)
			if rr.w.roles != nil && rr.w.roles[i] == roleBaseline {
				drbLat = c.res.GlobalLatencyUs
				continue
			}
			prLat = c.res.GlobalLatencyUs
			lat = append(lat, c.res.GlobalLatencyUs)
			p99 = append(p99, c.res.P99Us)
			if c.spec.App != nil {
				execUs = append(execUs, float64(c.spanNs)/1e3)
			}
		}
		wallPerMs = append(wallPerMs, execS/spanMs)
		pktsPerS = append(pktsPerS, pkts/execS)
		cellWall = append(cellWall, rep.wallS/float64(len(rep.cells)))
		allocPerPkt = append(allocPerPkt, alloc/pkts)
		if drbLat > 0 {
			gain = append(gain, stats.GainPct(drbLat, prLat))
		}
	}
	return map[string]float64{
		"wall_s_per_sim_ms":   median(wallPerMs),
		"pkts_per_wall_s":     median(pktsPerS),
		"cells_per_hour":      3600 / median(cellWall),
		"setup_s":             median(rr.setupS),
		"alloc_bytes_per_pkt": median(allocPerPkt),
		"heap_live_mb":        median(rr.heapMB),
		"sim_latency_us_mean": mean(lat),
		"sim_latency_us_p99":  mean(p99),
		"sim_exec_time_us":    mean(execUs),
		"sim_prdrb_gain_pct":  mean(gain),
	}
}

// failedShare is failed cells over attempted cells.
func (rr *runResult) failedShare() float64 {
	return float64(rr.failedCells()) / float64(rr.attempted)
}

// failedCells counts distinct failing cells (a cell may break two checks).
func (rr *runResult) failedCells() int {
	seen := map[string]bool{}
	for _, f := range rr.failures {
		seen[f.Cell] = true
	}
	return len(seen)
}

// cpuSample is the process CPU time split the runtime accounts for.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var out cpuSample
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// namedSummary is a timing with its spread.
type namedSummary struct {
	name string
	s    summary
}

// timings reports the run's raw host timings as median, min, max and n.
func (rr *runResult) timings() []namedSummary {
	var exec, wall, lat []float64
	for _, rep := range rr.timed {
		var e float64
		for _, c := range rep.cells {
			e += c.execS
			lat = append(lat, c.res.GlobalLatencyUs)
		}
		exec = append(exec, e)
		wall = append(wall, rep.wallS)
	}
	return []namedSummary{
		{"rep_execute_s", summarize(exec)},
		{"rep_wall_s", summarize(wall)},
		{"cell_setup_s", summarize(rr.setupS)},
		{"rep_heap_live_mb", summarize(rr.heapMB)},
		{"cell_sim_latency_us", summarize(lat)},
	}
}
