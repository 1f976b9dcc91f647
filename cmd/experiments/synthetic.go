package main

import (
	"fmt"
	"io"

	"prdrb"
)

// Load points: the paper drives each permutation at 400 and 600 Mbps/node
// on OPNET's VCT model. This reproduction's cut-through model saturates at
// a higher point, so the paper's "moderate" and "heavy" loads map to 600
// and 900 Mbps/node here (see EXPERIMENTS.md for the calibration note).
const (
	loadModerate = 600 // paper's "400 Mbps/node" operating point
	loadHeavy    = 900 // paper's "600 Mbps/node" operating point
)

// The §4.4 burst shape: 250 µs of traffic, then 300 µs of compute.
const burstLen, burstGap = 250 * prdrb.Microsecond, 300 * prdrb.Microsecond

// bursts is count bursts of pattern at rate Mbps per node in the §4.4
// shape on exp's fabric, drained for drain after the last one.
func bursts(exp prdrb.Experiment, pattern string, rate float64, count int, drain prdrb.Time) prdrb.Scenario {
	return prdrb.Scenario{
		Experiment: exp,
		Bursts:     &prdrb.BurstSpec{Pattern: pattern, RateMbps: rate, Len: burstLen, Gap: burstGap, Count: count},
		Drain:      drain,
	}
}

// permBursts is the canonical bursty-permutation run on the paper's fat
// tree: count bursts of pattern at rate over the first nodes sources, with
// the 50 µs latency series perBurst reads.
func permBursts(policy prdrb.Policy, pattern string, nodes int, rate float64, count int, seed uint64) prdrb.Scenario {
	exp := prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: policy, Seed: seed, SeriesWindow: 50 * prdrb.Microsecond}
	sc := bursts(exp, pattern, rate, count, 100*prdrb.Millisecond)
	sc.Bursts.PatternNodes = nodes
	return sc
}

// perBurst is a bursts run's average latency per burst, in µs.
func perBurst(o prdrb.Outcome, count int) []float64 {
	return windowMeans(o.Sim, burstLen+burstGap, count)
}

// windowMeans averages the global latency series over n consecutive
// windows of the given width, in µs (0 for an empty window).
func windowMeans(s *prdrb.Sim, window prdrb.Time, n int) []float64 {
	avg := make([]float64, n)
	cnt := make([]int64, n)
	for _, smp := range s.Collector.GlobalSeries.Samples() {
		b := int((smp.At - 1) / window)
		if b >= 0 && b < n {
			avg[b] += smp.Avg * float64(smp.N)
			cnt[b] += smp.N
		}
	}
	for b := range avg {
		if cnt[b] > 0 {
			avg[b] /= float64(cnt[b]) * 1e3
		}
	}
	return avg
}

// drbFamily is the three-policy comparison of the burst figures.
var drbFamily = []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyDRB, prdrb.PolicyPRDRB}

// permutationFigure renders one Fig 4.13-4.18-style comparison: the
// latency-vs-burst series for DRB and PR-DRB plus deterministic context.
func permutationFigure(pattern string, nodes int, rate float64) runFunc {
	return func(ctx *runCtx, w io.Writer) error {
		count := ctx.pick(8, 4)
		// Per seed: the global latency under det, drb and pr-drb, then the
		// per-burst latency under drb and pr-drb.
		avg, _, err := seedMean(ctx, drbFamily, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
			return permBursts(p, pattern, nodes, rate, count, seed)
		}, func(rs []prdrb.Outcome) ([]float64, error) {
			vs := []float64{rs[0].Res.GlobalLatencyUs, rs[1].Res.GlobalLatencyUs, rs[2].Res.GlobalLatencyUs}
			vs = append(append(vs, perBurst(rs[1], count)...), perBurst(rs[2], count)...)
			return vs, lossless(rs...)
		})
		if err != nil {
			return err
		}
		dG, drbG, prG := avg[0], avg[1], avg[2]
		drb, pr := avg[3:3+count], avg[3+count:]

		fmt.Fprintf(w, "fat-tree 4-ary 3-tree, %d communicating nodes, %s bursts @ %.0f Mbps/node\n", nodes, pattern, rate)
		fmt.Fprintf(w, "%d bursts of 250us, 300us compute gaps, %d seeds averaged\n\n", count, len(ctx.seeds))
		fmt.Fprintf(w, "average latency per burst (us):\n")
		burstTable(w, []string{"drb", "pr-drb"}, drb, pr)
		lateDRB := (drb[count-1] + drb[count-2]) / 2
		latePR := (pr[count-1] + pr[count-2]) / 2
		var csv [][]float64
		for b := 0; b < count; b++ {
			csv = append(csv, []float64{float64(b + 1), drb[b], pr[b]})
		}
		if err := ctx.writeCSV(fmt.Sprintf("series-%s-%d-%.0f", pattern, nodes, rate), []string{"burst", "drb_us", "prdrb_us"}, csv); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nglobal average latency: det=%.2fus drb=%.2fus pr-drb=%.2fus\n", dG, drbG, prG)
		fmt.Fprintf(w, "gains: drb vs det = %.1f%%, pr-drb vs drb (global) = %.1f%%, pr-drb vs drb (steady bursts) = %.1f%%\n",
			prdrb.GainPct(dG, drbG), prdrb.GainPct(drbG, prG), prdrb.GainPct(lateDRB, latePR))
		fmt.Fprintf(w, "first-burst difference (learning phase, should be ~0): %.1f%%\n",
			prdrb.GainPct(drb[0], pr[0]))
		return nil
	}
}

// burstTable prints one row of per-burst latencies per name under a
// burst-number header.
func burstTable(w io.Writer, names []string, rows ...[]float64) {
	fmt.Fprintf(w, "burst:      ")
	for b := range rows[0] {
		fmt.Fprintf(w, "%8d", b+1)
	}
	fmt.Fprintln(w)
	for i, row := range rows {
		fmt.Fprintf(w, "%-11s ", names[i])
		for _, v := range row {
			fmt.Fprintf(w, "%8.2f", v)
		}
		fmt.Fprintln(w)
	}
}

func init() {
	register("fig4.13", "Fat tree - Shuffle 32 nodes, moderate load", permutationFigure("shuffle", 32, loadModerate))
	register("fig4.14", "Fat tree - Shuffle 32 nodes, heavy load", permutationFigure("shuffle", 32, loadHeavy))
	register("fig4.15", "Fat tree - Bit Reversal 32 nodes, moderate load", permutationFigure("bitreversal", 32, loadModerate))
	register("fig4.16", "Fat tree - Bit Reversal 32 nodes, heavy load", permutationFigure("bitreversal", 32, loadHeavy))
	register("fig4.17", "Fat tree - Matrix Transpose 64 nodes, moderate load", permutationFigure("transpose", 64, loadModerate))
	register("fig4.18", "Fat tree - Matrix Transpose 64 nodes, heavy load", permutationFigure("transpose", 64, loadHeavy))
	register("figA.1", "Fat tree - Matrix Transpose 32 nodes, moderate load", permutationFigure("transpose", 32, loadModerate))
	register("figA.2", "Fat tree - Matrix Transpose 32 nodes, heavy load", permutationFigure("transpose", 32, loadHeavy))
	register("figA.3", "Fat tree - Shuffle 64 nodes, moderate load", permutationFigure("shuffle", 64, loadModerate))
	register("figA.4", "Fat tree - Bit Reversal 64 nodes, moderate load", permutationFigure("bitreversal", 64, loadModerate))

	register("fig4.08", "DRB path-opening procedures under hot-spot", figPathOpening)
	register("fig4.10", "Mesh hot-spot latency map, DRB", meshHotspotMap(prdrb.PolicyDRB))
	register("fig4.11", "Mesh hot-spot latency map, PR-DRB", meshHotspotMap(prdrb.PolicyPRDRB))
	register("fig4.12", "Average latency in mesh topology (repetitive bursts)", figMeshAvgLatency)
}

// meshHotspot is the Table 4.2 scenario: 8x8 mesh, colliding hot-spot
// flows in bursts plus uniform background noise, run to 1 s.
func meshHotspot(policy prdrb.Policy, seed uint64, bursts int) prdrb.Scenario {
	sc := prdrb.Scenario{Experiment: prdrb.Experiment{
		Topology:     prdrb.Mesh(8, 8),
		Policy:       policy,
		Seed:         seed,
		SeriesWindow: 50 * prdrb.Microsecond,
	}}
	flows := map[prdrb.NodeID]prdrb.NodeID{}
	for i := 0; i < 8; i++ {
		flows[prdrb.NodeID(i)] = prdrb.NodeID(63 - i)    // cross flows through the core
		flows[prdrb.NodeID(8*i)] = prdrb.NodeID(8*i + 7) // row flows
	}
	for b := 0; b < bursts; b++ {
		start := prdrb.Time(b) * 550 * prdrb.Microsecond
		sc.HotSpots = append(sc.HotSpots, prdrb.HotSpotSpec{Flows: flows, RateMbps: 800, Start: start, End: start + 250*prdrb.Microsecond})
	}
	endAll := prdrb.Time(bursts) * 550 * prdrb.Microsecond
	sc.Pattern = &prdrb.PatternSpec{Pattern: "uniform", RateMbps: 100, Start: 0, End: endAll}
	sc.Drain = prdrb.Second - endAll
	return sc
}

func meshHotspotMap(policy prdrb.Policy) runFunc {
	return func(ctx *runCtx, w io.Writer) error {
		bursts := ctx.pick(8, 3)
		o, err := meshHotspot(policy, ctx.seeds[0], bursts).Run()
		if err != nil {
			return err
		}
		res, m := o.Res, o.Sim.Map()
		fmt.Fprintf(w, "8x8 mesh, hot-spot + uniform noise (Table 4.2), policy %s\n\n", policy)
		fmt.Fprint(w, o.Sim.MapSurface())
		fmt.Fprintln(w)
		fmt.Fprint(w, m.String())
		fmt.Fprintf(w, "\nmap peak: %s at %.2fus avg contention; global latency %.2fus\n",
			m.Peak().Label, m.Peak().AvgNs/1e3, res.GlobalLatencyUs)
		if policy == prdrb.PolicyPRDRB {
			fmt.Fprintf(w, "pattern reuse: %d applications of %d saved solutions\n",
				res.Stats.ReuseApplications, res.SavedPatterns)
			// Contrast against DRB for the figure pair's claim, averaged over
			// the seed set (single-run map peaks are noisy).
			avg, _, err := seedMean(ctx, []prdrb.Policy{prdrb.PolicyDRB, prdrb.PolicyPRDRB}, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
				return meshHotspot(p, seed, bursts)
			}, each(func(o prdrb.Outcome) []float64 {
				return []float64{o.Sim.Map().Peak().AvgNs / 1e3, o.Res.GlobalLatencyUs}
			}))
			if err != nil {
				return err
			}
			drbPeak, drbGlob, prPeak, prGlob := avg[0], avg[1], avg[2], avg[3]
			fmt.Fprintf(w, "vs DRB (%d-seed avg): peak %.2fus -> %.2fus (%.1f%%), global %.2fus -> %.2fus (%.1f%%)\n",
				len(ctx.seeds), drbPeak, prPeak, prdrb.GainPct(drbPeak, prPeak),
				drbGlob, prGlob, prdrb.GainPct(drbGlob, prGlob))
		}
		return nil
	}
}

func figMeshAvgLatency(ctx *runCtx, w io.Writer) error {
	bursts := ctx.pick(8, 3)
	fmt.Fprintf(w, "8x8 mesh repetitive hot-spot bursts: global latency vs time, 100us windows\n\n")
	outs, err := runAll(ctx, meshHotspot(prdrb.PolicyDRB, ctx.seeds[0], bursts), meshHotspot(prdrb.PolicyPRDRB, ctx.seeds[0], bursts))
	if err != nil {
		return err
	}
	window := 100 * prdrb.Microsecond
	ticks := int(prdrb.Time(bursts)*550*prdrb.Microsecond/window) + 1
	var series [2][]float64
	for i, o := range outs {
		series[i] = windowMeans(o.Sim, window, ticks)
		fmt.Fprintf(w, "%-8s global=%.2fus reused=%d\n", o.Res.Policy, o.Res.GlobalLatencyUs, o.Res.Stats.ReuseApplications)
	}
	fmt.Fprintf(w, "\n t(us)      drb   pr-drb\n")
	var csv [][]float64
	for i := 0; i < ticks; i++ {
		d, p := series[0][i], series[1][i]
		if d == 0 && p == 0 {
			continue
		}
		fmt.Fprintf(w, "%6d %8.2f %8.2f\n", i*100, d, p)
		csv = append(csv, []float64{float64(i * 100), d, p})
	}
	return ctx.writeCSV("series-mesh-hotspot", []string{"t_us", "drb_us", "prdrb_us"}, csv)
}

// figPathOpening narrates Figs 4.8/4.9: the gradual aperture of
// alternative paths at one source while a hot-spot develops.
func figPathOpening(ctx *runCtx, w io.Writer) error {
	// Cross flows i -> 63-i share long segments of row 0 (then distinct
	// columns): the colliding-trajectory construction of §4.5.
	flows := map[prdrb.NodeID]prdrb.NodeID{}
	for i := 0; i < 6; i++ {
		flows[prdrb.NodeID(i)] = prdrb.NodeID(63 - i)
	}
	s, _, _, err := prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: prdrb.Mesh(8, 8), Policy: prdrb.PolicyDRB, Seed: ctx.seeds[0]},
		HotSpots:   []prdrb.HotSpotSpec{{Flows: flows, RateMbps: 1200, Start: 0, End: 600 * prdrb.Microsecond}},
	}.Build()
	if err != nil {
		return err
	}
	ctl := s.Controllers[0]
	fmt.Fprintf(w, "hot-spot flows %v on 8x8 mesh; watching source 0 -> 63\n\n", flows)
	fmt.Fprintf(w, "   t(us)  paths  zone  L(MP)us\n")
	for t := prdrb.Time(0); t <= 800*prdrb.Microsecond; t += 40 * prdrb.Microsecond {
		s.Execute(t)
		fmt.Fprintf(w, "%8d %6d %5s %8.2f\n", t/1000, ctl.PathCount(63), ctl.ZoneFor(63), ctl.MetapathLatency(63)/1e3)
	}
	res := s.Execute(prdrb.Second)
	fmt.Fprintf(w, "\npaths opened network-wide: %d, closed: %d; final global latency %.2fus\n",
		res.Stats.PathsOpened, res.Stats.PathsClosed, res.GlobalLatencyUs)
	if res.Stats.PathsOpened == 0 {
		return fmt.Errorf("no paths opened under hot-spot")
	}
	return nil
}
