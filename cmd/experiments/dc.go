package main

import (
	"fmt"
	"io"

	"prdrb"
)

// Datacenter presets (dc.*). The paper evaluates PR-DRB on HPC
// permutations and MPI application traces; datacenter fabrics see a very
// different offered load — heavy-tailed flow sizes (most flows tiny, most
// bytes in elephants), ON/OFF bursty arrivals, and strong rack/group
// locality. The dc.* experiments put the policy family under that load on
// the two datacenter topologies (dragonfly, full-bisection folded Clos)
// and ask: does predictive path balancing still pay when congestion comes
// from skewed short-flow traffic instead of stable permutation conflicts?

func init() {
	register("dc.dragonfly", "Heavy-tail skewed load on a dragonfly (adaptive/DRB/PR-DRB)", dcDragonfly)
	register("dc.clos", "Heavy-tail skewed load on a folded Clos (adaptive/DRB/PR-DRB)", dcClos)
}

type dcResult struct {
	mean, p50, p99, peak prdrb.Summary
	saved, reused        float64
}

// dcMeasure runs one policy across the harness seeds and summarizes the
// latency view (mean, percentiles, hottest-router contention) as
// mean ± 95% CI per §4.3.
func dcMeasure(ctx *runCtx, topo func() prdrb.Topology, policy prdrb.Policy, spec prdrb.HeavyTailSpec) (dcResult, error) {
	var scs []prdrb.Scenario
	for _, seed := range ctx.seeds {
		scs = append(scs, prdrb.Scenario{
			Experiment: prdrb.Experiment{Topology: topo(), Policy: policy, Seed: seed, SeriesWindow: 50 * prdrb.Microsecond},
			HeavyTail:  &spec,
			Drain:      prdrb.Second,
		})
	}
	outs, err := runAll(ctx, scs...)
	if err == nil {
		err = lossless(outs...)
	}
	if err != nil {
		return dcResult{}, err
	}
	var cols [4][]float64
	var agg dcResult
	for _, o := range outs {
		r := o.Res
		for i, v := range []float64{r.GlobalLatencyUs, r.P50Us, r.P99Us, r.PeakContentionUs} {
			cols[i] = append(cols[i], v)
		}
		agg.saved += float64(r.SavedPatterns)
		agg.reused += float64(r.Stats.ReuseApplications)
	}
	n := float64(len(outs))
	agg.mean, agg.p50, agg.p99, agg.peak = prdrb.Summarize(cols[0]), prdrb.Summarize(cols[1]), prdrb.Summarize(cols[2]), prdrb.Summarize(cols[3])
	agg.saved /= n
	agg.reused /= n
	return agg, nil
}

// pmUs renders a Summary as "mean±ci" in microseconds for the tables.
func pmUs(s prdrb.Summary) string { return fmt.Sprintf("%.2f±%.2f", s.Mean, s.CI95) }

// dcCompare renders the three-policy comparison table plus the gain
// statement, and emits the plot CSV (one row per policy).
func dcCompare(ctx *runCtx, w io.Writer, name, fabric string, topo func() prdrb.Topology, spec prdrb.HeavyTailSpec) error {
	policies := collFamily
	fmt.Fprintf(w, "%s\n%s flow sizes, ON/OFF arrivals, grouplocal p=%.1f, %.0f Mbps/node over %.0f us\n\n",
		fabric, spec.CDF, spec.PLocal, spec.LoadMbps, float64(spec.End)/float64(prdrb.Microsecond))
	fmt.Fprintf(w, "%-14s %14s %14s %14s %16s %8s %8s\n", "policy", "mean us", "p50 us", "p99 us", "peak us", "saved", "reused")
	got := map[prdrb.Policy]dcResult{}
	var rows [][]float64
	for i, p := range policies {
		r, err := dcMeasure(ctx, topo, p, spec)
		if err != nil {
			return err
		}
		got[p] = r
		fmt.Fprintf(w, "%-14s %14s %14s %14s %16s %8.0f %8.0f\n", p,
			pmUs(r.mean), pmUs(r.p50), pmUs(r.p99), pmUs(r.peak), r.saved, r.reused)
		rows = append(rows, []float64{float64(i), r.mean.Mean, r.mean.CI95,
			r.p50.Mean, r.p99.Mean, r.p99.CI95, r.peak.Mean, r.saved, r.reused})
	}
	if err := ctx.writeCSV("series-"+name, []string{"policy_idx", "mean_us", "mean_ci95", "p50_us", "p99_us", "p99_ci95", "peak_us", "saved", "reused"}, rows); err != nil {
		return err
	}
	ad, drb, pr := got[prdrb.PolicyAdaptive], got[prdrb.PolicyDRB], got[prdrb.PolicyPRDRB]
	fmt.Fprintf(w, "\nintervals are 95%% CI over %d seeds (Student-t, §4.3)\n", len(ctx.seeds))
	fmt.Fprintf(w, "\nPR-DRB vs adaptive: %+.1f%% mean, %+.1f%% p99\n",
		prdrb.GainPct(ad.mean.Mean, pr.mean.Mean), prdrb.GainPct(ad.p99.Mean, pr.p99.Mean))
	fmt.Fprintf(w, "PR-DRB vs DRB:      %+.1f%% mean, %+.1f%% p99\n",
		prdrb.GainPct(drb.mean.Mean, pr.mean.Mean), prdrb.GainPct(drb.p99.Mean, pr.p99.Mean))
	fmt.Fprintf(w, "\nPositive = PR-DRB lower. Group-local skew concentrates load on the\n")
	fmt.Fprintf(w, "intra-group links, so the win (or loss) shows whether metapath balancing\n")
	fmt.Fprintf(w, "helps when hotspots churn at flow timescales instead of burst timescales.\n")
	return nil
}

// dcDragonfly: cache-style short flows with rack locality on a dragonfly.
// Full mode uses df-4-9-2-2 (72 nodes, every group linked); quick mode a
// 40-node df-4-5-1-2. Group size defaults to the dragonfly rack (a*p).
func dcDragonfly(ctx *runCtx, w io.Writer) error {
	spec := prdrb.HeavyTailSpec{
		CDF: "cache", Pattern: "grouplocal", PLocal: 0.7,
		LoadMbps: 400,
		OnMean:   200 * prdrb.Microsecond, OffMean: 100 * prdrb.Microsecond,
		End: 1500 * prdrb.Microsecond,
	}
	if ctx.quick {
		spec.End = 300 * prdrb.Microsecond
		return dcCompare(ctx, w, "dc-dragonfly", "dragonfly df-4-5-1-2 (40 nodes, quick)",
			func() prdrb.Topology { return prdrb.Dragonfly(4, 5, 1, 2) }, spec)
	}
	return dcCompare(ctx, w, "dc-dragonfly", "dragonfly df-4-9-2-2 (72 nodes, 2 VCs via global-link datelines)",
		func() prdrb.Topology { return prdrb.Dragonfly(4, 9, 2, 2) }, spec)
}

// dcClos: web-search flow sizes (truncated at 256 KB so the elephant tail
// stays tractable) on the full-bisection folded Clos. Full mode uses the
// 512-host clos-16; quick mode the 64-host clos-8.
func dcClos(ctx *runCtx, w io.Writer) error {
	spec := prdrb.HeavyTailSpec{
		CDF: "websearch", MaxFlowBytes: 256 * 1024,
		Pattern: "grouplocal", PLocal: 0.5,
		LoadMbps: 300,
		OnMean:   200 * prdrb.Microsecond, OffMean: 100 * prdrb.Microsecond,
		End: 1000 * prdrb.Microsecond,
	}
	if ctx.quick {
		spec.End = 300 * prdrb.Microsecond
		return dcCompare(ctx, w, "dc-clos", "folded Clos clos-8 (64 hosts, quick)",
			func() prdrb.Topology { return prdrb.Clos(8) }, spec)
	}
	return dcCompare(ctx, w, "dc-clos", "folded Clos clos-16 (512 hosts, full bisection)",
		func() prdrb.Topology { return prdrb.Clos(16) }, spec)
}
