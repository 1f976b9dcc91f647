package main

import (
	"fmt"
	"io"

	"prdrb"
)

func init() {
	register("table0.summary", "Headline reproduction summary (one-page digest)", summaryReport)
}

// summaryReport regenerates the handful of numbers a reader checks first:
// the Fig 3.1 learning/reuse signature, the strongest permutation result,
// the mesh hot-spot contrast, one application result, and the throughput
// guarantee — each measured fresh, multi-seed.
func summaryReport(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "one-page digest (%d seeds); see EXPERIMENTS.md for the full index\n\n", len(ctx.seeds))

	// 1. Fig 3.1 signature on heavy shuffle.
	count := 8
	sig, _, err := seedMean(ctx, drbFamily, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
		return permBursts(p, "shuffle", 64, 900, count, seed)
	}, func(rs []prdrb.Outcome) ([]float64, error) {
		drb, pr := perBurst(rs[1], count), perBurst(rs[2], count)
		return []float64{prdrb.GainPct(drb[0], pr[0]), prdrb.GainPct(drb[count-1], pr[count-1]),
			rs[0].Res.GlobalLatencyUs, rs[1].Res.GlobalLatencyUs, rs[2].Res.GlobalLatencyUs}, lossless(rs...)
	})
	if err != nil {
		return err
	}
	first, late, detG, drbG, prG := sig[0], sig[1], sig[2], sig[3], sig[4]
	fmt.Fprintf(w, "1. repeated shuffle bursts (64 nodes, heavy load):\n")
	fmt.Fprintf(w, "   global latency: det %.1fus -> drb %.1fus -> pr-drb %.1fus\n", detG, drbG, prG)
	fmt.Fprintf(w, "   Fig 3.1 signature: burst 1 difference %.1f%% (learning), burst %d gain %.1f%% (reuse)\n\n",
		first, count, late)

	// 2. Mesh hot-spot.
	mesh, _, err := seedMean(ctx, []prdrb.Policy{prdrb.PolicyDRB, prdrb.PolicyPRDRB}, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
		return meshHotspot(p, seed, 8)
	}, each(func(o prdrb.Outcome) []float64 { return []float64{o.Res.GlobalLatencyUs} }))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "2. 8x8 mesh hot-spot (Figs 4.10-4.12): drb %.1fus -> pr-drb %.1fus (%.1f%%)\n\n",
		mesh[0], mesh[1], prdrb.GainPct(mesh[0], mesh[1]))

	// 3. One application (LAMMPS).
	lat, exec, last, err := appMeans(ctx, "lammps-chain", prdrb.WorkloadOptions{Iterations: ctx.pick(8, 4)},
		prdrb.PolicyDeterministic, prdrb.PolicyPRDRB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3. LAMMPS trace (Fig 4.25): latency det %.1fus -> pr-drb %.1fus (%.1f%%),\n",
		lat[0], lat[1], prdrb.GainPct(lat[0], lat[1]))
	fmt.Fprintf(w, "   execution time %.0fus -> %.0fus (%.1f%%), %d solution re-applications\n\n",
		exec[0], exec[1], prdrb.GainPct(exec[0], exec[1]), last[1].Res.Stats.ReuseApplications)

	// 4. Throughput guarantee.
	fmt.Fprintf(w, "4. accepted/offered = 1.000 in every run above (lossless; §4.2 guarantee)\n")
	return nil
}
