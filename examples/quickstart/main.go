// Quickstart: build a 64-node fat-tree, run repeated communication bursts
// under three routing policies, and print the paper's headline comparison —
// deterministic routing congests, DRB adapts, PR-DRB re-applies learned
// solutions and wins.
package main

import (
	"fmt"

	"prdrb"
)

func main() {
	fmt.Println("PR-DRB quickstart: shuffle bursts on a 4-ary 3-tree (64 nodes)")
	fmt.Println()

	var baseline float64
	for _, policy := range []prdrb.Policy{
		prdrb.PolicyDeterministic,
		prdrb.PolicyDRB,
		prdrb.PolicyPRDRB,
	} {
		// Each policy sees the identical offered traffic (same seed): eight
		// communication bursts with compute gaps in between — the bursty
		// traffic of parallel applications (thesis Fig 2.6) — and a second
		// for the fabric to drain.
		o, err := prdrb.Scenario{
			Experiment: prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: policy, Seed: 42},
			Bursts: &prdrb.BurstSpec{
				Pattern: "shuffle", RateMbps: 900,
				Len: 250 * prdrb.Microsecond, Gap: 300 * prdrb.Microsecond, Count: 8,
			},
			Drain: prdrb.Second,
		}.Run()
		if err != nil {
			panic(err)
		}
		res := o.Res
		fmt.Printf("%-15s global latency %7.2f us", policy, res.GlobalLatencyUs)
		if baseline == 0 {
			baseline = res.GlobalLatencyUs
			fmt.Println("   (baseline)")
		} else {
			fmt.Printf("   %5.1f%% better than deterministic\n",
				prdrb.GainPct(baseline, res.GlobalLatencyUs))
		}
		if policy == prdrb.PolicyPRDRB {
			fmt.Printf("%15s %d congestion patterns saved, %d solution re-applications\n",
				"", res.SavedPatterns, res.Stats.ReuseApplications)
		}
	}
}
