// Faults: inject hard link failures into an 8x8 mesh mid-run and watch
// the difference between deterministic routing (traffic parks on the dead
// path until the link is repaired) and PR-DRB (the source controllers
// detect the loss, invalidate stale solutions and reselect healthy
// metapaths within microseconds).
//
// The fault schedule is authored with the same grammar as prdrbsim's
// -faults flag; swap the spec below for e.g. "rand4@200us~400us" to fail
// four random links instead.
package main

import (
	"fmt"

	"prdrb"
)

func main() {
	// Three links in the mesh core fail at t=200us and come back 400us
	// later; traffic runs for 600us, so repair lands after the window.
	const faultSpec = "link@200us:9.0+400us,link@200us:18.2+400us,flap@250us:27.3*2/100us"

	fmt.Println("link failures on an 8x8 mesh, uniform traffic at 200 Mbps/node")
	fmt.Printf("fault plan: %s\n\n", faultSpec)

	for _, policy := range []prdrb.Policy{
		prdrb.PolicyDeterministic,
		prdrb.PolicyPRDRB,
	} {
		// Same seed: both policies face identical traffic and failures.
		o, err := prdrb.Scenario{
			Experiment: prdrb.Experiment{Topology: prdrb.Mesh(8, 8), Policy: policy, Seed: 7},
			Faults:     faultSpec,
			Pattern:    &prdrb.PatternSpec{Pattern: "uniform", RateMbps: 200, Start: 0, End: 600 * prdrb.Microsecond},
			Drain:      prdrb.Second - 600*prdrb.Microsecond, // run to 1 s
		}.Run()
		if err != nil {
			panic(err)
		}
		res := o.Res
		fmt.Printf("%-15s global latency %7.2f us, p99 %8.2f us\n",
			policy, res.GlobalLatencyUs, res.P99Us)
		fmt.Printf("%15s dropped %d in-flight packets, %d unreachable messages\n",
			"", res.DroppedPkts, res.UnreachableMsgs)
		if policy == prdrb.PolicyPRDRB {
			fmt.Printf("%15s %d path failures detected, %d recovery cycles, median time-to-recover %.2f us\n",
				"", res.Stats.PathFailures, res.Recoveries, res.RecoveryP50Us)
		} else {
			fmt.Printf("%15s no failure awareness: parked traffic waits out the 400 us repair\n", "")
		}
	}
}
