// Traceplayer reproduces the application experiments of thesis §4.8: it
// generates an MPI-style logical trace of the Parallel Ocean Program
// (POP), replays it through the simulated fat-tree under every routing
// policy the paper compares (Fig 4.27), and prints global latency and
// application execution time. It also shows how to build a custom trace
// by hand.
package main

import (
	"fmt"

	"prdrb"
)

func main() {
	popComparison()
	customTrace()
}

func popComparison() {
	fmt.Println("POP (64 ranks) on a 4-ary 3-tree — the 7-policy comparison of Fig 4.27")
	tr, err := prdrb.Workload("pop", prdrb.WorkloadOptions{Iterations: 10})
	if err != nil {
		panic(err)
	}
	fmt.Print("call mix (Table 2.1):")
	for _, call := range []string{"allreduce", "isend", "waitall"} {
		t, _ := prdrb.MPICallType(call)
		fmt.Printf(" %s %.1f%%", call, 100*tr.CallShare(t))
	}
	fmt.Println()
	fmt.Printf("\n%-15s %14s %14s %10s\n", "policy", "latency (us)", "exec (us)", "reused")
	for _, policy := range prdrb.Policies() {
		tr, err := prdrb.Workload("pop", prdrb.WorkloadOptions{Iterations: 10})
		if err != nil {
			panic(err)
		}
		// The scenario gives the DRB family thresholds scaled to the trace
		// regime.
		o, err := prdrb.Scenario{
			Experiment: prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: policy, Seed: 9},
			Traces:     []prdrb.MappedTrace{{Trace: tr}},
			Drain:      20 * prdrb.Second,
		}.Run()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-15s %14.2f %14.1f %10d\n",
			policy, o.Res.GlobalLatencyUs, o.Exec.Micros(), o.Res.Stats.ReuseApplications)
	}
}

// customTrace hand-builds a small ring exchange with a final reduction and
// replays it — the full logical-trace API on ten lines.
func customTrace() {
	const ranks = 16
	b := prdrb.NewTraceBuilder("ring-demo", ranks)
	for step := 0; step < 4; step++ {
		for r := 0; r < ranks; r++ {
			b.Compute(r, 20*prdrb.Microsecond)
			b.Sendrecv(r, (r+1)%ranks, (r+ranks-1)%ranks, 8*1024)
		}
		b.Allreduce(256)
	}

	o, err := prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: prdrb.Mesh(4, 4), Policy: prdrb.PolicyAdaptive, Seed: 1},
		Traces:     []prdrb.MappedTrace{{Trace: b.Build()}},
		Drain:      prdrb.Second,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncustom 16-rank ring on a 4x4 mesh: %d packets, latency %.2f us, exec %.1f us\n",
		o.Res.DeliveredPkts, o.Res.GlobalLatencyUs, o.Exec.Micros())
}
