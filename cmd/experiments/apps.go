package main

import (
	"fmt"
	"io"
	"sort"

	"prdrb"
)

func init() {
	register("fig4.20", "NAS LU latency maps: deterministic vs DRB vs PR-DRB", fig420)
	register("fig4.21", "NAS MG global latency & execution time (classes S/A/B)", fig421)
	register("fig4.22", "Contention latency of NAS MG routers (hottest)", routerSeriesFigure("nas-mg-a", 2))
	register("fig4.23", "Contention latency of NAS MG routers (next)", routerSeriesFigure("nas-mg-a", 4))
	register("fig4.24", "LAMMPS latency maps: deterministic vs DRB vs PR-DRB", fig424)
	register("fig4.25", "LAMMPS global latency & execution time", fig425)
	register("fig4.26", "LAMMPS router contention & pattern reuse statistics", fig426)
	register("fig4.27", "POP global latency & execution time, 7 policies", fig427)
	register("fig4.28", "Contention latency of POP routers", routerSeriesFigure("pop", 2))
	register("fig4.29", "POP latency maps for non-DRB policies", popMaps([]prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyCyclic, prdrb.PolicyRandom}))
	register("fig4.30", "POP latency maps for the DRB family", popMaps([]prdrb.Policy{prdrb.PolicyDRB, prdrb.PolicyPRDRB, prdrb.PolicyFRDRB, prdrb.PolicyPRFRDRB}))
	register("figA.5", "Contention latency of POP routers (appendix set)", routerSeriesFigure("pop", 6))
}

// appScenario replays a trace under a policy on the paper's 64-node fat
// tree; the Scenario gives DRB-family policies the trace-tuned
// configuration (§4.8 regime).
func appScenario(tr *prdrb.Trace, policy prdrb.Policy, seed uint64, window prdrb.Time) prdrb.Scenario {
	return prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: policy, Seed: seed, SeriesWindow: window},
		Traces:     []prdrb.MappedTrace{{Trace: tr}},
		Drain:      60 * prdrb.Second,
	}
}

// appRuns replays app on the first seed once per policy, on the pool.
func appRuns(ctx *runCtx, app string, opt prdrb.WorkloadOptions, window prdrb.Time, policies ...prdrb.Policy) ([]prdrb.Outcome, error) {
	tr, err := prdrb.Workload(app, opt)
	if err != nil {
		return nil, err
	}
	var scs []prdrb.Scenario
	for _, p := range policies {
		scs = append(scs, appScenario(tr, p, ctx.seeds[0], window))
	}
	return runAll(ctx, scs...)
}

// appMeans replays app under each policy on every seed and returns, per
// policy, the seed-averaged latency and execution time in µs (§4.3) and
// the last seed's results.
func appMeans(ctx *runCtx, app string, opt prdrb.WorkloadOptions, policies ...prdrb.Policy) (lat, exec []float64, last []prdrb.Outcome, err error) {
	tr, err := prdrb.Workload(app, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	avg, last, err := seedMean(ctx, policies, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
		return appScenario(tr, p, seed, 0)
	}, each(func(o prdrb.Outcome) []float64 { return []float64{o.Res.GlobalLatencyUs, o.Exec.Micros()} }))
	for i := 0; i < len(avg); i += 2 {
		lat, exec = append(lat, avg[i]), append(exec, avg[i+1])
	}
	return lat, exec, last, err
}

// mapsFigure renders the three-policy latency-map comparison the paper
// uses for LU (Fig 4.20) and LAMMPS (Fig 4.24).
func mapsFigure(ctx *runCtx, w io.Writer, app string, opt prdrb.WorkloadOptions) error {
	outs, err := appRuns(ctx, app, opt, 0, drbFamily...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on fat-tree 64, average contention latency per router (top entries)\n", app)
	var peak []float64
	for i, o := range outs {
		m := o.Sim.Map()
		peak = append(peak, m.Peak().AvgNs/1e3)
		fmt.Fprintf(w, "\n--- %s (map peak %.2fus, global latency %.2fus)\n", drbFamily[i], peak[i], o.Res.GlobalLatencyUs)
		fmt.Fprint(w, m.String())
	}
	fmt.Fprintf(w, "\npeak reductions: det->drb %.1f%%, drb->pr-drb %.1f%%, det->pr-drb %.1f%%\n",
		prdrb.GainPct(peak[0], peak[1]), prdrb.GainPct(peak[1], peak[2]), prdrb.GainPct(peak[0], peak[2]))
	return nil
}

func fig420(ctx *runCtx, w io.Writer) error {
	// LU class A with larger surfaces so the wavefront edges contend.
	return mapsFigure(ctx, w, "nas-lu", prdrb.WorkloadOptions{
		Iterations: ctx.pick(8, 4), MsgBytes: 16 * 1024, ComputeNs: 10 * prdrb.Microsecond,
	})
}

func fig424(ctx *runCtx, w io.Writer) error {
	return mapsFigure(ctx, w, "lammps-chain", prdrb.WorkloadOptions{Iterations: ctx.pick(10, 5)})
}

func fig421(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "NAS MG: global average latency and execution time per class\n\n")
	fmt.Fprintf(w, "class policy          latency(us)   exec(us)\n")
	var gains []string
	for _, class := range []string{"nas-mg-s", "nas-mg-a", "nas-mg-b"} {
		lat, exec, _, err := appMeans(ctx, class, prdrb.WorkloadOptions{Iterations: ctx.pick(8, 4)}, drbFamily...)
		if err != nil {
			return err
		}
		for i, p := range drbFamily {
			fmt.Fprintf(w, "%-6s %-14s %10.2f %11.1f\n", class[len(class)-1:], p, lat[i], exec[i])
		}
		gains = append(gains, fmt.Sprintf("\nclass %s: det->pr-drb latency %.1f%%, exec time %.1f%%",
			class[len(class)-1:], prdrb.GainPct(lat[0], lat[2]), prdrb.GainPct(exec[0], exec[2])))
	}
	for _, g := range gains {
		fmt.Fprint(w, g)
	}
	fmt.Fprintf(w, "\n\npaper shape: class S shows no improvement (negligible contention); classes A and B\n")
	fmt.Fprintf(w, "show large latency reductions and 8-23%% execution-time gains for the DRB family.\n")
	return nil
}

func fig425(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "LAMMPS Chain: global latency and execution time (%d-seed avg)\n\n", len(ctx.seeds))
	lat, exec, _, err := appMeans(ctx, "lammps-chain", prdrb.WorkloadOptions{Iterations: ctx.pick(10, 5)}, drbFamily...)
	if err != nil {
		return err
	}
	for i, p := range drbFamily {
		fmt.Fprintf(w, "%-14s latency=%8.2fus exec=%10.1fus\n", p, lat[i], exec[i])
	}
	fmt.Fprintf(w, "\nlatency gains: pr-drb vs drb %.1f%%, pr-drb vs det %.1f%% (paper: 5%% / 36%%)\n",
		prdrb.GainPct(lat[1], lat[2]), prdrb.GainPct(lat[0], lat[2]))
	fmt.Fprintf(w, "exec gains:    pr-drb vs drb %.1f%%, pr-drb vs det %.1f%% (paper: 6%% / 37%%)\n",
		prdrb.GainPct(exec[1], exec[2]), prdrb.GainPct(exec[0], exec[2]))
	return nil
}

func fig426(ctx *runCtx, w io.Writer) error {
	outs, err := appRuns(ctx, "lammps-chain", prdrb.WorkloadOptions{Iterations: ctx.pick(10, 5)},
		50*prdrb.Microsecond, prdrb.PolicyPRDRB)
	if err != nil {
		return err
	}
	res := outs[0].Res
	fmt.Fprintf(w, "LAMMPS Chain under PR-DRB: predictive statistics\n\n")
	st := res.Stats
	fmt.Fprintf(w, "contending-flow patterns saved:   %d\n", res.SavedPatterns)
	fmt.Fprintf(w, "distinct patterns re-identified:  %d\n", st.PatternsReused)
	fmt.Fprintf(w, "solution re-applications:         %d\n", st.ReuseApplications)
	fmt.Fprintf(w, "paths opened/closed:              %d / %d\n", st.PathsOpened, st.PathsClosed)
	fmt.Fprintf(w, "ACKs processed:                   %d\n", st.AcksSeen)
	fmt.Fprintf(w, "\npaper shape (Fig 4.26b): 80 patterns found during the first stage, 7 identified\n")
	fmt.Fprintf(w, "again, one re-applied 279 times — i.e. saved >> reused-distinct, applications >> saved.\n")
	if st.ReuseApplications <= st.PatternsReused {
		return fmt.Errorf("re-applications (%d) not exceeding distinct patterns (%d)", st.ReuseApplications, st.PatternsReused)
	}
	return nil
}

func fig427(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "POP: global average latency and execution time, all policies (%d-seed avg)\n\n", len(ctx.seeds))
	fmt.Fprintf(w, "%-14s %12s %12s %10s\n", "policy", "latency(us)", "exec(us)", "reused")
	policies := prdrb.Policies()
	lat, exec, last, err := appMeans(ctx, "pop", prdrb.WorkloadOptions{Iterations: ctx.pick(12, 6)}, policies...)
	if err != nil {
		return err
	}
	at := map[prdrb.Policy]int{}
	for i, p := range policies {
		at[p] = i
		fmt.Fprintf(w, "%-14s %12.2f %12.1f %10.0f\n", p, lat[i], exec[i], float64(last[i].Res.Stats.ReuseApplications))
	}
	det, pr, prfr := at[prdrb.PolicyDeterministic], at[prdrb.PolicyPRDRB], at[prdrb.PolicyPRFRDRB]
	fmt.Fprintf(w, "\npr-drb vs det: latency %.1f%%, exec %.1f%% (paper: 38%% latency, ~27%% exec for the family)\n",
		prdrb.GainPct(lat[det], lat[pr]), prdrb.GainPct(exec[det], exec[pr]))
	fmt.Fprintf(w, "pr-fr-drb vs det: latency %.1f%% (paper: up to 57%% for the fast-response predictive variant)\n",
		prdrb.GainPct(lat[det], lat[prfr]))
	return nil
}

// routerSeriesFigure prints contention-latency time series of the hottest
// routers under DRB vs PR-DRB (Figs 4.22/4.23/4.26a/4.28/A.5-A.7).
func routerSeriesFigure(app string, topN int) runFunc {
	return func(ctx *runCtx, w io.Writer) error {
		window := 100 * prdrb.Microsecond
		outs, err := appRuns(ctx, app, prdrb.WorkloadOptions{Iterations: ctx.pick(10, 5)}, window, prdrb.PolicyDRB, prdrb.PolicyPRDRB)
		if err != nil {
			return err
		}
		// Pick the hottest routers of the DRB run as the routers to plot.
		drbMap := outs[0].Sim.Map()
		n := min(topN, len(drbMap.Cells))
		fmt.Fprintf(w, "%s: avg contention latency (us) per %v window at the %d hottest routers\n",
			app, window, n)
		for _, cell := range drbMap.Cells[:n] {
			fmt.Fprintf(w, "\nrouter %s\n  t(us)      drb   pr-drb\n", cell.Label)
			merged := map[prdrb.Time][2]float64{}
			for i, o := range outs {
				for _, s := range o.Sim.Collector.Contention.SeriesOf(cell.Router).Samples() {
					v := merged[s.At]
					v[i] = s.Avg / 1e3
					merged[s.At] = v
				}
			}
			var ts []prdrb.Time
			for t := range merged {
				ts = append(ts, t)
			}
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			var csv [][]float64
			for _, t := range ts {
				fmt.Fprintf(w, "%6d %8.2f %8.2f\n", t/1000, merged[t][0], merged[t][1])
				csv = append(csv, []float64{float64(t) / 1000, merged[t][0], merged[t][1]})
			}
			if err := ctx.writeCSV(fmt.Sprintf("series-%s-router-%s", app, cell.Label), []string{"t_us", "drb_us", "prdrb_us"}, csv); err != nil {
				return err
			}
		}
		return nil
	}
}

func popMaps(policies []prdrb.Policy) runFunc {
	return func(ctx *runCtx, w io.Writer) error {
		outs, err := appRuns(ctx, "pop", prdrb.WorkloadOptions{Iterations: ctx.pick(12, 6)}, 0, policies...)
		if err != nil {
			return err
		}
		peaks := ""
		for i, o := range outs {
			m := o.Sim.Map()
			peak := m.Peak().AvgNs / 1e3
			fmt.Fprintf(w, "--- %s (map peak %.2fus, global %.2fus)\n", policies[i], peak, o.Res.GlobalLatencyUs)
			fmt.Fprint(w, m.String())
			fmt.Fprintln(w)
			peaks += fmt.Sprintf("%s=%.2fus ", policies[i], peak)
		}
		fmt.Fprintf(w, "map peaks: %s\n", peaks)
		return nil
	}
}
