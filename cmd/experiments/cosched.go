package main

import (
	"fmt"
	"io"

	"prdrb"
)

func init() {
	register("fig3.1", "PR-DRB overview: learning burst vs reuse bursts", fig31)
	register("abl.coschedule", "Two applications sharing the fabric (§5.2 provisioning)", ablCoschedule)
}

// fig31 renders the paper's conceptual overview figure as measured data:
// DRB and PR-DRB per-burst latency over repeated identical bursts — equal
// in the learning stage, diverging once solutions are saved.
func fig31(ctx *runCtx, w io.Writer) error {
	count := ctx.pick(8, 4)
	fmt.Fprintf(w, "repeated shuffle bursts (900 Mbps, 64 nodes): average latency per burst (us)\n\n")
	avg, _, err := seedMean(ctx, []prdrb.Policy{prdrb.PolicyDRB, prdrb.PolicyPRDRB}, func(p prdrb.Policy, seed uint64) prdrb.Scenario {
		return permBursts(p, "shuffle", 64, 900, count, seed)
	}, func(rs []prdrb.Outcome) ([]float64, error) {
		return append(perBurst(rs[0], count), perBurst(rs[1], count)...), lossless(rs...)
	})
	if err != nil {
		return err
	}
	drb, pr := avg[:count], avg[count:]
	burstTable(w, []string{"drb", "pr-drb"}, drb, pr)
	first := prdrb.GainPct(drb[0], pr[0])
	last := prdrb.GainPct(drb[count-1], pr[count-1])
	fmt.Fprintf(w, "\nstage 1 (learning): %.1f%% apart — \"the curve for DRB and PR-DRB are practically\n", first)
	fmt.Fprintf(w, "the same\" (§3.1.1); stage 2 (reuse): PR-DRB %.1f%% below DRB.\n", last)
	return nil
}

// ablCoschedule runs POP and LAMMPS simultaneously on disjoint halves of
// the fat tree and measures cross-application interference: each
// application's execution time alone vs co-scheduled, under deterministic
// routing and under PR-DRB.
func ablCoschedule(ctx *runCtx, w io.Writer) error {
	iters := ctx.pick(8, 4)
	// Both applications are striped across every leaf switch (POP on
	// nodes 4i, LAMMPS on nodes 4i+1), so both must cross the L1/L2 core
	// and share its links — the adversarial co-scheduling case.
	var apps []prdrb.MappedTrace
	for off, name := range []string{"pop", "lammps-chain"} {
		tr, err := prdrb.Workload(name, prdrb.WorkloadOptions{Ranks: 16, Iterations: iters})
		if err != nil {
			return err
		}
		app := prdrb.MappedTrace{Trace: tr}
		for i := 0; i < 16; i++ {
			app.Mapping = append(app.Mapping, prdrb.NodeID(4*i+off))
		}
		apps = append(apps, app)
	}
	// POP alone and beside LAMMPS under each policy.
	policies := []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyPRDRB}
	var scs []prdrb.Scenario
	for _, p := range policies {
		for n := 1; n <= 2; n++ {
			scs = append(scs, prdrb.Scenario{
				Experiment: prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: p, Seed: ctx.seeds[0]},
				Traces:     apps[:n],
				Drain:      120 * prdrb.Second,
			})
		}
	}
	outs, err := runAll(ctx, scs...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "POP (16 ranks, nodes 4i) and LAMMPS (16 ranks, nodes 4i+1), both striped\n")
	fmt.Fprintf(w, "across every leaf switch of one 64-node fat tree — all traffic shares the core\n\n")
	fmt.Fprintf(w, "%-14s %16s %16s %14s\n", "policy", "pop alone(us)", "pop shared(us)", "slowdown")
	for i, p := range policies {
		alone, shared := outs[2*i].Exec, outs[2*i+1].Exec
		slow := float64(shared)/float64(alone) - 1
		fmt.Fprintf(w, "%-14s %16.1f %16.1f %13.1f%%\n", p, alone.Micros(), shared.Micros(), 100*slow)
	}
	fmt.Fprintf(w, "\nadaptive multipath contains cross-application interference: the paper's\n")
	fmt.Fprintf(w, "provisioning open line (§5.2) asks exactly this question.\n")
	return nil
}
