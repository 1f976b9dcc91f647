package main

import (
	"fmt"
	"io"

	"prdrb"
)

// Ablations for the design choices DESIGN.md calls out: thresholds and
// zones (§3.2.4), pattern-similarity matching (§3.2.8), metapath size,
// notification placement (§3.4), the FR-DRB watchdog (§4.8.4), the §5.2
// extensions (trend prediction, static knowledge preloading), and the
// cut-through modelling choice.

func init() {
	register("abl.thresholds", "ThresholdHigh sensitivity (zone boundaries, §3.2.4)", ablThresholds)
	register("abl.similarity", "Pattern-similarity threshold sweep (§3.2.8's 80%)", ablSimilarity)
	register("abl.maxpaths", "Metapath size sweep (paper uses 4 alternative paths)", ablMaxPaths)
	register("abl.notify", "Destination-based vs router-based notification (§3.4)", ablNotify)
	register("abl.watchdog", "FR-DRB watchdog timeout sweep (§4.8.4)", ablWatchdog)
	register("abl.trend", "Latency-trend prediction on/off (§5.2 extension)", ablTrend)
	register("abl.knowledge", "Static solution preloading vs cold start (§5.2)", ablKnowledge)
	register("abl.cutthrough", "Cut-through granularity (VCT modelling choice)", ablCutThrough)
	register("abl.mapping", "Process placement vs routing adaptivity (§3.1)", ablMapping)
	register("abl.topology", "PR-DRB across topology families (§2.1.1)", ablTopology)
	register("abl.varpattern", "Bursty traffic with variable pattern (Fig 2.6b)", ablVarPattern)
	register("abl.tail", "Tail latency (p50/p99) under the policies", ablTail)
	register("abl.scale", "Scaling to 256 nodes: where adaptation pays", ablScale)
}

// ablScale runs the bursty permutations on the paper's 64-node fat tree
// and on a 4x larger one (4-ary 4-tree, 256 nodes). The paper never
// evaluates beyond 64 nodes; this shows what changes: adaptation keeps
// paying where deterministic routing conflicts (shuffle), but on
// conflict-light patterns at scale the default thresholds — sized for
// 64-node path latencies — misread healthy 8-hop latency as congestion and
// the resulting detours create the very contention they flee.
func ablScale(ctx *runCtx, w io.Writer) error {
	cases := []struct {
		label string
		exp   prdrb.Experiment
	}{
		{"deterministic", prdrb.Experiment{Policy: prdrb.PolicyDeterministic}},
		{"pr-drb", prdrb.Experiment{Policy: prdrb.PolicyPRDRB}},
		{"pr-drb scaled-thr", prdrbWith(func(c *prdrb.PolicyConfig) {
			// Thresholds scaled ~4x, tracking the deeper tree's base
			// path latency.
			c.ThresholdHigh = 40 * prdrb.Microsecond
			c.ThresholdLow = 8 * prdrb.Microsecond
		})},
	}
	var scs []prdrb.Scenario
	for _, pat := range []string{"shuffle", "transpose"} {
		for _, cc := range cases {
			for _, topo := range []prdrb.Topology{prdrb.FatTree(4, 3), prdrb.FatTree(4, 4)} {
				exp := cc.exp
				exp.Topology, exp.Seed = topo, ctx.seeds[0]
				scs = append(scs, bursts(exp, pat, 800, 6, 2*prdrb.Second))
			}
		}
	}
	outs, err := runAll(ctx, scs...)
	if err == nil {
		err = lossless(outs...)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bursty permutations @ 800 Mbps/node, 6 bursts; global latency (us)\n\n")
	fmt.Fprintf(w, "%-12s %-20s %12s %12s\n", "pattern", "policy", "ft-4-3 (64)", "ft-4-4 (256)")
	for i := 0; i < len(outs); i += 2 {
		fmt.Fprintf(w, "%-12s %-20s %12.2f %12.2f\n", scs[i].Bursts.Pattern, cases[i/2%len(cases)].label,
			outs[i].Res.GlobalLatencyUs, outs[i+1].Res.GlobalLatencyUs)
	}
	fmt.Fprintf(w, "\nshuffle conflicts under deterministic routing at both scales, so PR-DRB keeps\n")
	fmt.Fprintf(w, "its large win. Transpose at 256 exposes the method's scaling limits: the ACK\n")
	fmt.Fprintf(w, "feedback delay grows with the deeper tree while the burst length does not, so\n")
	fmt.Fprintf(w, "path weights are always stale and 256 controllers thrash load between regions;\n")
	fmt.Fprintf(w, "rescaling the §3.2.4 zone thresholds to the longer base path latency damps the\n")
	fmt.Fprintf(w, "churn (222 -> 99 us) but does not recover the deterministic baseline. The paper\n")
	fmt.Fprintf(w, "only evaluates 64 nodes; this is the frontier its §5.2 trend/offline extensions\n")
	fmt.Fprintf(w, "would need to address.\n")
	return nil
}

// ablTail reports latency percentiles — the production view the paper's
// averages hide: congestion transients dominate p99 long before they move
// the mean.
func ablTail(ctx *runCtx, w io.Writer) error {
	avg, _, err := seedMean(ctx, drbFamily, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
		return shuffleBursts(prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: p, Seed: seed}, 6)
	}, each(func(o prdrb.Outcome) []float64 { return []float64{o.Res.GlobalLatencyUs, o.Res.P50Us, o.Res.P99Us} }))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shuffle bursts @ 900 Mbps/node, 64 nodes, 6 bursts; end-to-end percentiles (us)\n\n")
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "policy", "mean", "p50", "p99")
	for i, p := range drbFamily {
		fmt.Fprintf(w, "%-14s %10.2f %10.2f %10.2f\n", p, avg[3*i], avg[3*i+1], avg[3*i+2])
	}
	det, pr := avg[0:3], avg[6:9]
	fmt.Fprintf(w, "\np99 gain det -> pr-drb: %.1f%% (mean gain %.1f%%). The mean compresses harder\n",
		prdrb.GainPct(det[2], pr[2]), prdrb.GainPct(det[0], pr[0]))
	fmt.Fprintf(w, "than the tail: the residual p99 is the detection lag itself — the first packets\n")
	fmt.Fprintf(w, "of every burst must still suffer before any reactive policy can respond, which\n")
	fmt.Fprintf(w, "is precisely the window the §5.2 trend predictor targets.\n")
	return nil
}

// ablVarPattern alternates three permutations across bursts: the solution
// database must keep one solution per pattern per destination and reuse
// the right one when its pattern returns.
func ablVarPattern(ctx *runCtx, w io.Writer) error {
	count := ctx.pick(9, 6)
	sc := prdrb.Scenario{Experiment: prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Seed: ctx.seeds[0]}, VarCount: count, Drain: prdrb.Second}
	for _, pat := range []string{"shuffle", "bitreversal", "transpose"} {
		sc.VarBursts = append(sc.VarBursts, prdrb.BurstSpec{Pattern: pat, RateMbps: 900, Len: burstLen, Gap: burstGap})
	}
	drbRun, prRun := sc, sc
	drbRun.Policy, prRun.Policy = prdrb.PolicyDRB, prdrb.PolicyPRDRB
	outs, err := runAll(ctx, drbRun, prRun)
	if err != nil {
		return err
	}
	drb, pr := outs[0].Res, outs[1].Res
	fmt.Fprintf(w, "%d bursts cycling shuffle -> bitreversal -> transpose @ 900 Mbps/node\n\n", count)
	fmt.Fprintf(w, "drb:    latency %.2fus\n", drb.GlobalLatencyUs)
	fmt.Fprintf(w, "pr-drb: latency %.2fus (%.1f%% better), %d solutions saved, %d re-applications\n",
		pr.GlobalLatencyUs, prdrb.GainPct(drb.GlobalLatencyUs, pr.GlobalLatencyUs),
		pr.SavedPatterns, pr.Stats.ReuseApplications)
	fmt.Fprintf(w, "\neach destination accumulates one solution per contending pattern; the 80%%\n")
	fmt.Fprintf(w, "matcher selects the right one when its pattern returns (§3.2.8).\n")
	if pr.Stats.ReuseApplications == 0 {
		return fmt.Errorf("no reuse under variable patterns")
	}
	return nil
}

// ablTopology runs the same bursty workload over every 64-node topology
// family the library supports: the paper's mesh and fat tree plus the
// §2.1.1 k-ary n-cube generalizations.
func ablTopology(ctx *runCtx, w io.Writer) error {
	topos := []struct {
		name string
		topo prdrb.Topology
	}{
		{"mesh 8x8", prdrb.Mesh(8, 8)},
		{"torus 8x8", prdrb.Torus(8, 8)},
		{"torus 4x4x4", prdrb.Torus3D(4, 4, 4)},
		{"fat-tree 4-ary-3", prdrb.FatTree(4, 3)},
	}
	fmt.Fprintf(w, "transpose bursts @ 700 Mbps/node, 64 nodes, 6 bursts\n\n")
	fmt.Fprintf(w, "%-18s %14s %14s %10s\n", "topology", "det (us)", "pr-drb (us)", "gain")
	for _, tc := range topos {
		lats, _, err := seedMean(ctx, []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyPRDRB}, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
			return bursts(prdrb.Experiment{Topology: tc.topo, Policy: p, Seed: seed}, "transpose", 700, 6, prdrb.Second)
		}, func(rs []prdrb.Outcome) ([]float64, error) {
			return []float64{rs[0].Res.GlobalLatencyUs, rs[1].Res.GlobalLatencyUs}, lossless(rs...)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		fmt.Fprintf(w, "%-18s %14.2f %14.2f %9.1f%%\n", tc.name, lats[0], lats[1], prdrb.GainPct(lats[0], lats[1]))
	}
	fmt.Fprintf(w, "\nrichly connected fabrics (torus rings, tree ascent choice) leave more for the\n")
	fmt.Fprintf(w, "metapath to exploit; the 2-D mesh depends entirely on detour waypoints.\n")
	return nil
}

// ablMapping separates what mapping buys from what routing buys: LAMMPS
// under identity vs optimized placement, each with deterministic and
// PR-DRB routing.
func ablMapping(ctx *runCtx, w io.Writer) error {
	tr, err := prdrb.Workload("lammps-chain", prdrb.WorkloadOptions{Iterations: 8})
	if err != nil {
		return err
	}
	topo := prdrb.FatTree(4, 3)
	mapping, gain, err := prdrb.OptimizePlacement(topo, tr, ctx.seeds[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "placement optimizer: byte-weighted hop cost reduced %.1f%% vs identity\n\n", gain)
	fmt.Fprintf(w, "%-11s %-14s %12s %12s\n", "placement", "policy", "latency(us)", "exec(us)")
	for _, m := range []struct {
		name string
		mp   []prdrb.NodeID
	}{{"identity", nil}, {"optimized", mapping}} {
		for _, pol := range []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyPRDRB} {
			sc := appScenario(tr, pol, ctx.seeds[0], 0)
			sc.Traces[0].Mapping = m.mp
			o, err := sc.Run()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-11s %-14s %12.2f %12.1f\n", m.name, pol, o.Res.GlobalLatencyUs, o.Exec.Micros())
		}
	}
	fmt.Fprintf(w, "\nmapping and adaptive routing attack the same contention from two sides; the\n")
	fmt.Fprintf(w, "paper's framework extracts exactly the matrix this optimizer consumes (§4.7).\n")
	return nil
}

// shuffleBursts is the ablations' workload, §4.4's hardest case: count
// shuffle bursts at 900 Mbps/node, drained for 1 s.
func shuffleBursts(exp prdrb.Experiment, count int) prdrb.Scenario {
	return bursts(exp, "shuffle", 900, count, prdrb.Second)
}

// prdrbWith is PR-DRB with its default configuration changed by set.
func prdrbWith(set func(*prdrb.PolicyConfig)) prdrb.Experiment {
	cfg := prdrb.PRDRBPolicyConfig()
	set(&cfg)
	return prdrb.Experiment{Policy: prdrb.PolicyPRDRB, DRB: &cfg}
}

// sweep prints header, runs six shuffle bursts on the 64-node fat tree
// with the first seed for every experiment exps returns per knob value, on
// the pool, hands each value's results to row, in order, and prints
// footer.
func sweep[V any](ctx *runCtx, w io.Writer, header string, values []V, exps func(V) []prdrb.Experiment,
	row func(V, []prdrb.Results), footer string) error {
	fmt.Fprint(w, header)
	var scs []prdrb.Scenario
	for _, v := range values {
		for _, exp := range exps(v) {
			exp.Topology, exp.Seed = prdrb.FatTree(4, 3), ctx.seeds[0]
			scs = append(scs, shuffleBursts(exp, 6))
		}
	}
	outs, err := runAll(ctx, scs...)
	if err != nil {
		return err
	}
	per := len(outs) / len(values)
	for i, v := range values {
		var rs []prdrb.Results
		for _, o := range outs[i*per : (i+1)*per] {
			rs = append(rs, o.Res)
		}
		row(v, rs)
	}
	fmt.Fprint(w, footer)
	return nil
}

func ablThresholds(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "PR-DRB on heavy shuffle bursts; ThresholdHigh sweep (ThresholdLow = High/5)\n\n"+
		"high(us)   latency(us)  pathsOpened  reuses\n",
		[]prdrb.Time{2, 5, 10, 20, 40}, func(high prdrb.Time) []prdrb.Experiment {
			return []prdrb.Experiment{prdrbWith(func(c *prdrb.PolicyConfig) {
				c.ThresholdHigh = high * prdrb.Microsecond
				c.ThresholdLow = high * prdrb.Microsecond / 5
			})}
		}, func(high prdrb.Time, rs []prdrb.Results) {
			fmt.Fprintf(w, "%8d %12.2f %12d %7d\n", high, rs[0].GlobalLatencyUs, rs[0].Stats.PathsOpened, rs[0].Stats.ReuseApplications)
		}, "\nlow thresholds over-react (churn), high thresholds under-react (late detection);\n"+
			"the default (10us) sits in the working valley.\n")
}

func ablSimilarity(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "pattern-similarity threshold sweep (paper: 80%)\n\n"+
		"similarity  latency(us)   reuses   saved\n",
		[]float64{0.3, 0.5, 0.8, 0.95, 1.0}, func(sim float64) []prdrb.Experiment {
			return []prdrb.Experiment{prdrbWith(func(c *prdrb.PolicyConfig) { c.Similarity = sim })}
		}, func(sim float64, rs []prdrb.Results) {
			fmt.Fprintf(w, "%10.2f %12.2f %8d %7d\n", sim, rs[0].GlobalLatencyUs, rs[0].Stats.ReuseApplications, rs[0].SavedPatterns)
		}, "\nexact matching (1.0) misses near-identical patterns and reuses less; very loose\n"+
			"matching reuses the wrong solutions. 0.8 trades both off, as the paper chose.\n")
}

func ablMaxPaths(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "metapath size sweep (paper: maximum of 4 alternative paths, §4.6.3)\n\n"+
		"maxPaths  latency(us)\n",
		[]int{1, 2, 4, 6, 8}, func(mp int) []prdrb.Experiment {
			return []prdrb.Experiment{prdrbWith(func(c *prdrb.PolicyConfig) { c.MaxPaths = mp })}
		}, func(mp int, rs []prdrb.Results) {
			fmt.Fprintf(w, "%8d %12.2f\n", mp, rs[0].GlobalLatencyUs)
		}, "\nmaxPaths=1 is deterministic-with-ACK-overhead; gains saturate past ~4 paths\n"+
			"because the NCA diversity at a 64-node tree is consumed.\n")
}

func ablNotify(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "notification placement (§3.2.2 destination-based vs §3.4 router-based)\n\n"+
		fmt.Sprintf("%-18s latency(us)  predictiveAcks  reuses\n", "mode"),
		[]string{"destination", "router"}, func(mode string) []prdrb.Experiment {
			netCfg := prdrb.DefaultNetworkConfig()
			if mode == "router" {
				netCfg.NotifyMode = 1 // RouterBased
			}
			return []prdrb.Experiment{{Policy: prdrb.PolicyPRDRB, Network: &netCfg}}
		}, func(mode string, rs []prdrb.Results) {
			fmt.Fprintf(w, "%-18s %11.2f %15d %7d\n", mode, rs[0].GlobalLatencyUs, rs[0].Stats.PredictiveAcks, rs[0].Stats.ReuseApplications)
		}, "\nrouter-based notification reacts before the packet reaches its destination\n"+
			"(early detection, §3.4.1) at the cost of router-injected ACK traffic.\n")
}

func ablWatchdog(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "FR-DRB watchdog timeout sweep under saturated bursts (§4.8.4)\n\n"+
		"timeout(us)  latency(us)  watchdogFirings\n",
		[]prdrb.Time{0, 30, 60, 120, 300}, func(wd prdrb.Time) []prdrb.Experiment {
			cfg := prdrb.FRDRBPolicyConfig()
			cfg.Watchdog = wd * prdrb.Microsecond
			return []prdrb.Experiment{{Policy: prdrb.PolicyFRDRB, DRB: &cfg}}
		}, func(wd prdrb.Time, rs []prdrb.Results) {
			fmt.Fprintf(w, "%11d %12.2f %16d\n", wd, rs[0].GlobalLatencyUs, rs[0].Stats.WatchdogFirings)
		}, "\n0 disables the watchdog (plain DRB); short timeouts fire on healthy RTT noise,\n"+
			"long ones never beat the regular ACK path.\n")
}

func ablTrend(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "latency-trend predictor (§5.2): horizon sweep on heavy shuffle bursts\n\n"+
		"horizon(us)  latency(us)  trendFirings  pathsOpened\n",
		[]prdrb.Time{0, 50, 150, 400}, func(h prdrb.Time) []prdrb.Experiment {
			return []prdrb.Experiment{prdrbWith(func(c *prdrb.PolicyConfig) { c.TrendHorizon = h * prdrb.Microsecond })}
		}, func(h prdrb.Time, rs []prdrb.Results) {
			fmt.Fprintf(w, "%11d %12.2f %13d %12d\n", h, rs[0].GlobalLatencyUs, rs[0].Stats.TrendFirings, rs[0].Stats.PathsOpened)
		}, "\nthe predictor opens paths while latency is still rising toward the threshold,\n"+
			"trading a few unnecessary apertures for shorter detection lag.\n")
}

func ablKnowledge(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "static solution preloading (§5.2 'static variation')\n\n")
	prdrbOn := func(seed uint64) prdrb.Experiment {
		return prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: prdrb.PolicyPRDRB, Seed: seed}
	}
	train, err := shuffleBursts(prdrbOn(ctx.seeds[0]), 6).Run()
	if err != nil {
		return err
	}
	know := train.Sim.ExportKnowledge()
	fmt.Fprintf(w, "training run: latency %.2fus, %d solutions exported\n", train.Res.GlobalLatencyUs, know.Size())
	cold, warm := shuffleBursts(prdrbOn(ctx.seeds[0]+1), 3), shuffleBursts(prdrbOn(ctx.seeds[0]+1), 3)
	warm.Knowledge = know
	outs, err := runAll(ctx, cold, warm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cold start (3 bursts):   latency %.2fus, reuses %d\n", outs[0].Res.GlobalLatencyUs, outs[0].Res.Stats.ReuseApplications)
	fmt.Fprintf(w, "preloaded  (3 bursts):   latency %.2fus, reuses %d\n", outs[1].Res.GlobalLatencyUs, outs[1].Res.Stats.ReuseApplications)
	gain := prdrb.GainPct(outs[0].Res.GlobalLatencyUs, outs[1].Res.GlobalLatencyUs)
	fmt.Fprintf(w, "gain from offline knowledge: %.1f%%\n", gain)
	fmt.Fprintf(w, "\nnote: the cold run's reuse *count* can exceed the warm run's — cold-start churn\n")
	fmt.Fprintf(w, "re-detects and re-applies repeatedly; what matters is the latency of the early\n")
	fmt.Fprintf(w, "bursts, which preloading improves.\n")
	if outs[1].Res.Stats.ReuseApplications == 0 {
		return fmt.Errorf("preloaded run never reused")
	}
	if gain < 0 {
		return fmt.Errorf("preloading degraded latency by %.1f%%", -gain)
	}
	return nil
}

func ablCutThrough(ctx *runCtx, w io.Writer) error {
	return sweep(ctx, w, "cut-through granularity: HeaderBytes sweep (1024 = store-and-forward)\n\n"+
		"header(B)  det latency(us)  pr-drb latency(us)\n",
		[]int{64, 256, 1024}, func(hb int) (exps []prdrb.Experiment) {
			for _, pol := range []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyPRDRB} {
				netCfg := prdrb.DefaultNetworkConfig()
				netCfg.HeaderBytes = hb
				netCfg.GenerateAcks = pol.IsDRBFamily()
				exps = append(exps, prdrb.Experiment{Policy: pol, Network: &netCfg})
			}
			return exps
		}, func(hb int, rs []prdrb.Results) {
			fmt.Fprintf(w, "%9d %16.2f %19.2f\n", hb, rs[0].GlobalLatencyUs, rs[1].GlobalLatencyUs)
		}, "\nlarger forwarding granularity raises base latency per hop (store-and-forward\n"+
			"at 1024B) and penalizes DRB's longer alternative paths; the paper's VCT model\n"+
			"corresponds to the small-header rows.\n")
}
