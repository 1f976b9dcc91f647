package prdrb

// One benchmark per table and figure of the paper's evaluation, named after
// it (EXPERIMENTS.md's per-artifact index says what each measures). Each
// bench executes a scaled-down version of the corresponding experiment per
// iteration and reports the domain metrics (latencies in us, gains in
// percent) via b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the whole result set. The full-scale renditions live in cmd/experiments.

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/phase"
	"prdrb/internal/sim"
)

// benchBursts runs the repeated-burst permutation scenario.
func benchBursts(policy Policy, pattern string, nodes int, rate float64, count int, seed uint64) (Results, []float64) {
	s := MustNewSim(Experiment{
		Topology:     FatTree(4, 3),
		Policy:       policy,
		Seed:         seed,
		SeriesWindow: 50 * Microsecond,
	})
	blen, gap := 250*Microsecond, 300*Microsecond
	end, err := s.InstallBursts(BurstSpec{
		Pattern: pattern, RateMbps: rate, Len: blen, Gap: gap,
		Count: count, PatternNodes: nodes,
	})
	if err != nil {
		panic(err)
	}
	res := s.Execute(end + Second)
	period := blen + gap
	avg := make([]float64, count)
	n := make([]int64, count)
	for _, smp := range s.Collector.GlobalSeries.Samples() {
		b := int((smp.At - 1) / period)
		if b >= 0 && b < count {
			avg[b] += smp.Avg * float64(smp.N)
			n[b] += smp.N
		}
	}
	for i := range avg {
		if n[i] > 0 {
			avg[i] /= float64(n[i]) * 1e3
		}
	}
	return res, avg
}

// permutationBench reports det/drb/pr-drb global latency and the PR gain
// for one Fig 4.13-4.18 configuration.
func permutationBench(b *testing.B, pattern string, nodes int, rate float64) {
	b.Helper()
	var det, drb, pr float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		d, _ := benchBursts(PolicyDeterministic, pattern, nodes, rate, 6, seed)
		r, _ := benchBursts(PolicyDRB, pattern, nodes, rate, 6, seed)
		p, _ := benchBursts(PolicyPRDRB, pattern, nodes, rate, 6, seed)
		det, drb, pr = d.GlobalLatencyUs, r.GlobalLatencyUs, p.GlobalLatencyUs
	}
	b.ReportMetric(det, "det_us")
	b.ReportMetric(drb, "drb_us")
	b.ReportMetric(pr, "prdrb_us")
	b.ReportMetric(GainPct(drb, pr), "pr_vs_drb_%")
}

func BenchmarkFig4_13_14_Shuffle32(b *testing.B)   { permutationBench(b, "shuffle", 32, 900) }
func BenchmarkFig4_15_16_BitRev32(b *testing.B)    { permutationBench(b, "bitreversal", 32, 900) }
func BenchmarkFig4_17_18_Transpose64(b *testing.B) { permutationBench(b, "transpose", 64, 900) }
func BenchmarkFigA_1_4_Permutations(b *testing.B) {
	permutationBench(b, "transpose", 32, 600)
}

// BenchmarkFig3_1_BurstTransient reports the Fig 3.1 signature: first-burst
// parity and late-burst divergence between DRB and PR-DRB.
func BenchmarkFig3_1_BurstTransient(b *testing.B) {
	var first, late float64
	for i := 0; i < b.N; i++ {
		_, drbB := benchBursts(PolicyDRB, "shuffle", 64, 900, 6, uint64(i+1))
		_, prB := benchBursts(PolicyPRDRB, "shuffle", 64, 900, 6, uint64(i+1))
		first = GainPct(drbB[0], prB[0])
		late = GainPct(drbB[5], prB[5])
	}
	b.ReportMetric(first, "first_burst_gain_%")
	b.ReportMetric(late, "late_burst_gain_%")
}

// BenchmarkFig4_8_PathOpening measures the DRB path-expansion machinery
// under a mesh hot-spot.
func BenchmarkFig4_8_PathOpening(b *testing.B) {
	var opened, closed int64
	for i := 0; i < b.N; i++ {
		s := MustNewSim(Experiment{Topology: Mesh(8, 8), Policy: PolicyDRB, Seed: uint64(i + 1)})
		flows := map[NodeID]NodeID{}
		for j := 0; j < 6; j++ {
			flows[NodeID(j)] = NodeID(63 - j)
		}
		s.InstallHotSpot(flows, 1200, 0, 500*Microsecond)
		res := s.Execute(Second)
		opened, closed = res.Stats.PathsOpened, res.Stats.PathsClosed
	}
	b.ReportMetric(float64(opened), "paths_opened")
	b.ReportMetric(float64(closed), "paths_closed")
}

func benchMeshHotspot(policy Policy, seed uint64) (*Sim, Results) {
	s := MustNewSim(Experiment{Topology: Mesh(8, 8), Policy: policy, Seed: seed})
	flows := map[NodeID]NodeID{}
	for i := 0; i < 8; i++ {
		flows[NodeID(i)] = NodeID(63 - i)
		flows[NodeID(8*i)] = NodeID(8*i + 7)
	}
	for bu := 0; bu < 4; bu++ {
		start := Time(bu) * 550 * Microsecond
		s.InstallHotSpot(flows, 800, start, start+250*Microsecond)
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 100, Start: 0, End: 2200 * Microsecond}); err != nil {
		panic(err)
	}
	res := s.Execute(Second)
	return s, res
}

// BenchmarkFig4_10_11_LatencyMapMesh reports the mesh hot-spot map peaks
// for DRB and PR-DRB.
func BenchmarkFig4_10_11_LatencyMapMesh(b *testing.B) {
	var drbPeak, prPeak float64
	for i := 0; i < b.N; i++ {
		sd, _ := benchMeshHotspot(PolicyDRB, uint64(i+1))
		sp, _ := benchMeshHotspot(PolicyPRDRB, uint64(i+1))
		drbPeak = sd.Map().Peak().AvgNs / 1e3
		prPeak = sp.Map().Peak().AvgNs / 1e3
	}
	b.ReportMetric(drbPeak, "drb_peak_us")
	b.ReportMetric(prPeak, "prdrb_peak_us")
}

// BenchmarkFig4_12_MeshAvgLatency reports global mesh latency DRB vs
// PR-DRB under repetitive hot-spot bursts.
func BenchmarkFig4_12_MeshAvgLatency(b *testing.B) {
	var drb, pr float64
	for i := 0; i < b.N; i++ {
		_, rd := benchMeshHotspot(PolicyDRB, uint64(i+1))
		_, rp := benchMeshHotspot(PolicyPRDRB, uint64(i+1))
		drb, pr = rd.GlobalLatencyUs, rp.GlobalLatencyUs
	}
	b.ReportMetric(drb, "drb_us")
	b.ReportMetric(pr, "prdrb_us")
	b.ReportMetric(GainPct(drb, pr), "gain_%")
}

// appScenario replays tr (placed by mapping) under a policy on the 64-node
// fat tree; the scenario gives the DRB family the trace-tuned config.
func appScenario(tr *Trace, policy Policy, seed uint64, mapping []NodeID) Scenario {
	return Scenario{
		Experiment: Experiment{Topology: FatTree(4, 3), Policy: policy, Seed: seed},
		Traces:     []MappedTrace{{Trace: tr, Mapping: mapping}},
		Drain:      60 * Second,
	}
}

// benchApp replays a workload trace under a policy.
func benchApp(app string, policy Policy, seed uint64, iters int) (Results, Time) {
	tr, err := Workload(app, WorkloadOptions{Iterations: iters})
	if err != nil {
		panic(err)
	}
	o, err := appScenario(tr, policy, seed, nil).Run()
	if err != nil {
		panic(err)
	}
	return o.Res, o.Exec
}

// appBench reports deterministic vs PR-DRB latency and execution time.
func appBench(b *testing.B, app string, iters int) {
	b.Helper()
	var detLat, prLat, detExec, prExec float64
	for i := 0; i < b.N; i++ {
		rd, ed := benchApp(app, PolicyDeterministic, uint64(i+1), iters)
		rp, ep := benchApp(app, PolicyPRDRB, uint64(i+1), iters)
		detLat, prLat = rd.GlobalLatencyUs, rp.GlobalLatencyUs
		detExec, prExec = ed.Micros(), ep.Micros()
	}
	b.ReportMetric(detLat, "det_us")
	b.ReportMetric(prLat, "prdrb_us")
	b.ReportMetric(GainPct(detLat, prLat), "lat_gain_%")
	b.ReportMetric(GainPct(detExec, prExec), "exec_gain_%")
}

func BenchmarkFig4_20_NASLUMap(b *testing.B) {
	var detPeak, prPeak float64
	for i := 0; i < b.N; i++ {
		mk := func(p Policy) float64 {
			tr, _ := Workload("nas-lu", WorkloadOptions{Iterations: 4, MsgBytes: 16 * 1024, ComputeNs: 10 * Microsecond})
			o, err := appScenario(tr, p, uint64(i+1), nil).Run()
			if err != nil {
				panic(err)
			}
			return o.Sim.Map().Peak().AvgNs / 1e3
		}
		detPeak = mk(PolicyDeterministic)
		prPeak = mk(PolicyPRDRB)
	}
	b.ReportMetric(detPeak, "det_peak_us")
	b.ReportMetric(prPeak, "prdrb_peak_us")
	b.ReportMetric(GainPct(detPeak, prPeak), "peak_gain_%")
}

func BenchmarkFig4_21_NASMG(b *testing.B)        { appBench(b, "nas-mg-a", 5) }
func BenchmarkFig4_22_23_MGRouters(b *testing.B) { appBench(b, "nas-mg-b", 4) }
func BenchmarkFig4_24_LammpsMap(b *testing.B)    { appBench(b, "lammps-chain", 6) }

func BenchmarkFig4_25_LammpsGlobal(b *testing.B) {
	var drbLat, prLat float64
	for i := 0; i < b.N; i++ {
		rd, _ := benchApp("lammps-chain", PolicyDRB, uint64(i+1), 6)
		rp, _ := benchApp("lammps-chain", PolicyPRDRB, uint64(i+1), 6)
		drbLat, prLat = rd.GlobalLatencyUs, rp.GlobalLatencyUs
	}
	b.ReportMetric(drbLat, "drb_us")
	b.ReportMetric(prLat, "prdrb_us")
}

func BenchmarkFig4_26_LammpsRouters(b *testing.B) {
	var saved, reused, applications float64
	for i := 0; i < b.N; i++ {
		res, _ := benchApp("lammps-chain", PolicyPRDRB, uint64(i+1), 8)
		saved = float64(res.SavedPatterns)
		reused = float64(res.Stats.PatternsReused)
		applications = float64(res.Stats.ReuseApplications)
	}
	b.ReportMetric(saved, "patterns_saved")
	b.ReportMetric(reused, "patterns_reused")
	b.ReportMetric(applications, "applications")
}

func BenchmarkFig4_27_POPGlobal(b *testing.B) {
	var det, rnd, pr float64
	for i := 0; i < b.N; i++ {
		rd, _ := benchApp("pop", PolicyDeterministic, uint64(i+1), 8)
		rr, _ := benchApp("pop", PolicyRandom, uint64(i+1), 8)
		rp, _ := benchApp("pop", PolicyPRDRB, uint64(i+1), 8)
		det, rnd, pr = rd.GlobalLatencyUs, rr.GlobalLatencyUs, rp.GlobalLatencyUs
	}
	b.ReportMetric(det, "det_us")
	b.ReportMetric(rnd, "random_us")
	b.ReportMetric(pr, "prdrb_us")
	b.ReportMetric(GainPct(det, pr), "pr_vs_det_%")
}

func BenchmarkFig4_28_POPRouters(b *testing.B) { appBench(b, "pop", 8) }

func BenchmarkFig4_29_30_POPMaps(b *testing.B) {
	var detPeak, prPeak float64
	for i := 0; i < b.N; i++ {
		mk := func(p Policy) float64 {
			tr, _ := Workload("pop", WorkloadOptions{Iterations: 8})
			o, err := appScenario(tr, p, uint64(i+1), nil).Run()
			if err != nil {
				panic(err)
			}
			return o.Sim.Map().Peak().AvgNs / 1e3
		}
		detPeak = mk(PolicyDeterministic)
		prPeak = mk(PolicyPRDRB)
	}
	b.ReportMetric(detPeak, "det_peak_us")
	b.ReportMetric(prPeak, "prdrb_peak_us")
}

// BenchmarkTable2_1_MPICallMix regenerates the call-mix shares.
func BenchmarkTable2_1_MPICallMix(b *testing.B) {
	var popIsend, popAllreduce, luSend float64
	for i := 0; i < b.N; i++ {
		pop, err := Workload("pop", WorkloadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lu, err := Workload("nas-lu", WorkloadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		popIsend = 100 * pop.CallShare(network.MPIIsend)
		popAllreduce = 100 * pop.CallShare(network.MPIAllreduce)
		luSend = 100 * lu.CallShare(network.MPISend)
	}
	b.ReportMetric(popIsend, "pop_isend_%")
	b.ReportMetric(popAllreduce, "pop_allreduce_%")
	b.ReportMetric(luSend, "lu_send_%")
}

// BenchmarkTable2_2_Phases regenerates the phase-repetition statistics.
func BenchmarkTable2_2_Phases(b *testing.B) {
	var total, weight float64
	for i := 0; i < b.N; i++ {
		tr, err := Workload("pop", WorkloadOptions{Iterations: 15})
		if err != nil {
			b.Fatal(err)
		}
		an := phase.Analyze(tr, 10*sim.Microsecond)
		total = float64(an.TotalPhases())
		weight = float64(an.RepetitionWeight(2))
	}
	b.ReportMetric(total, "total_phases")
	b.ReportMetric(weight, "repetition_weight")
}

// BenchmarkFig2_10_CommMatrices regenerates TDC values.
func BenchmarkFig2_10_CommMatrices(b *testing.B) {
	var chainTDC, sweepTDC float64
	for i := 0; i < b.N; i++ {
		chain, err := Workload("lammps-chain", WorkloadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sw, err := Workload("sweep3d", WorkloadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		chainTDC, _ = phase.TDC(phase.CommMatrix(chain))
		sweepTDC, _ = phase.TDC(phase.CommMatrix(sw))
	}
	b.ReportMetric(chainTDC, "lammps_tdc")
	b.ReportMetric(sweepTDC, "sweep3d_tdc")
}

// BenchmarkAblKnowledgePreload measures the §5.2 static variation: a
// trained solution database preloaded into a fresh run.
func BenchmarkAblKnowledgePreload(b *testing.B) {
	var coldLat, warmLat float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		train := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: seed})
		end, _ := train.InstallBursts(BurstSpec{Pattern: "shuffle", RateMbps: 900,
			Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 5})
		train.Execute(end + Second)
		know := train.ExportKnowledge()

		run := func(preload bool) float64 {
			s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: seed + 100})
			if preload {
				if err := s.ImportKnowledge(know); err != nil {
					b.Fatal(err)
				}
			}
			end, _ := s.InstallBursts(BurstSpec{Pattern: "shuffle", RateMbps: 900,
				Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 3})
			return s.Execute(end + Second).GlobalLatencyUs
		}
		coldLat, warmLat = run(false), run(true)
	}
	b.ReportMetric(coldLat, "cold_us")
	b.ReportMetric(warmLat, "preloaded_us")
	b.ReportMetric(GainPct(coldLat, warmLat), "gain_%")
}

// BenchmarkAblTrendPrediction measures the §5.2 trend predictor.
func BenchmarkAblTrendPrediction(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		run := func(horizon Time) float64 {
			cfg := PRDRBPolicyConfig()
			cfg.TrendHorizon = horizon
			s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: uint64(i + 1), DRB: &cfg})
			end, _ := s.InstallBursts(BurstSpec{Pattern: "shuffle", RateMbps: 900,
				Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 5})
			return s.Execute(end + Second).GlobalLatencyUs
		}
		off, on = run(0), run(300*Microsecond)
	}
	b.ReportMetric(off, "reactive_us")
	b.ReportMetric(on, "predictive_us")
	b.ReportMetric(GainPct(off, on), "gain_%")
}

// BenchmarkAblPlacement measures mapping optimization composed with PR-DRB.
func BenchmarkAblPlacement(b *testing.B) {
	var idLat, optLat float64
	for i := 0; i < b.N; i++ {
		tr, err := Workload("lammps-chain", WorkloadOptions{Iterations: 6})
		if err != nil {
			b.Fatal(err)
		}
		mapping, _, err := OptimizePlacement(FatTree(4, 3), tr, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		run := func(m []NodeID) float64 {
			o, err := appScenario(tr, PolicyPRDRB, uint64(i+1), m).Run()
			if err != nil {
				b.Fatal(err)
			}
			return o.Res.GlobalLatencyUs
		}
		idLat, optLat = run(nil), run(mapping)
	}
	b.ReportMetric(idLat, "identity_us")
	b.ReportMetric(optLat, "optimized_us")
	b.ReportMetric(GainPct(idLat, optLat), "gain_%")
}
