package prdrb_test

import (
	"fmt"

	"prdrb"
)

// The minimal experiment: deterministic routing, uniform traffic, one
// latency number out.
func ExampleNewSim() {
	sim, err := prdrb.NewSim(prdrb.Experiment{
		Topology: prdrb.Mesh(4, 4),
		Policy:   prdrb.PolicyDeterministic,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	if err := sim.InstallPattern(prdrb.PatternSpec{
		Pattern: "transpose", RateMbps: 200,
		Start: 0, End: 100 * prdrb.Microsecond,
	}); err != nil {
		panic(err)
	}
	res := sim.Execute(prdrb.Second)
	fmt.Println("lossless:", res.AcceptedRatio == 1 && res.DeliveredPkts > 0)
	// Output: lossless: true
}

// PR-DRB learns congestion solutions during repeated bursts and re-applies
// them; the statistics expose the predictive machinery.
func ExampleSim_InstallBursts() {
	sim := prdrb.MustNewSim(prdrb.Experiment{
		Topology: prdrb.FatTree(4, 3),
		Policy:   prdrb.PolicyPRDRB,
		Seed:     42,
	})
	end, err := sim.InstallBursts(prdrb.BurstSpec{
		Pattern: "shuffle", RateMbps: 900,
		Len: 250 * prdrb.Microsecond, Gap: 300 * prdrb.Microsecond, Count: 4,
	})
	if err != nil {
		panic(err)
	}
	res := sim.Execute(end + prdrb.Second)
	fmt.Println("solutions saved:", res.SavedPatterns > 0)
	fmt.Println("solutions re-applied:", res.Stats.ReuseApplications > 0)
	// Output:
	// solutions saved: true
	// solutions re-applied: true
}

// Logical traces drive the network with real MPI-style dependencies; the
// replay reports application execution time.
func ExampleSim_PlayTrace() {
	b := prdrb.NewTraceBuilder("ring", 8)
	for r := 0; r < 8; r++ {
		b.Compute(r, 10*prdrb.Microsecond)
		b.Sendrecv(r, (r+1)%8, (r+7)%8, 4096)
	}
	b.Allreduce(64)

	sim := prdrb.MustNewSim(prdrb.Experiment{
		Topology: prdrb.Mesh(4, 4),
		Policy:   prdrb.PolicyAdaptive,
		Seed:     1,
	})
	rep, err := sim.PlayTrace(b.Build(), nil)
	if err != nil {
		panic(err)
	}
	sim.Execute(prdrb.Second)
	if err := rep.Err(); err != nil {
		panic(err)
	}
	fmt.Println("finished:", rep.Finished())
	fmt.Println("took longer than compute alone:", rep.ExecutionTime() > 10*prdrb.Microsecond)
	// Output:
	// finished: true
	// took longer than compute alone: true
}

// Generated application workloads reproduce the paper's published call
// mixes (Table 2.1).
func ExampleWorkload() {
	tr, err := prdrb.Workload("pop", prdrb.WorkloadOptions{Iterations: 4})
	if err != nil {
		panic(err)
	}
	allreduce, _ := prdrb.MPICallType("allreduce")
	fmt.Println("ranks:", tr.Ranks)
	fmt.Println("allreduce-heavy:", tr.CallShare(allreduce) > 0.2)
	// Output:
	// ranks: 64
	// allreduce-heavy: true
}

// The offline provisioning analysis (§5.2) reports a workload's network
// footprint before any simulation runs.
func ExampleAnalyzeDemand() {
	tr, err := prdrb.Workload("sweep3d", prdrb.WorkloadOptions{Iterations: 2})
	if err != nil {
		panic(err)
	}
	d, err := prdrb.AnalyzeDemand(prdrb.FatTree(4, 3), tr, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("uses a strict subset of links:", d.FootprintShare() < 1)
	// Output: uses a strict subset of links: true
}
