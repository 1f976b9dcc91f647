// Allreduce algorithm shoot-out: lower the same 64-rank MPI_Allreduce
// with three classic algorithms — the bandwidth-optimal ring, the
// latency-optimal recursive doubling, and the halving-doubling compromise
// — and replay each on an 8x8 mesh under PR-DRB. The ring moves the least
// data per link but takes 2(n-1) serialized steps; recursive doubling
// finishes in log2(n) rounds but each round crosses half the machine.
package main

import (
	"fmt"

	"prdrb"
)

func main() {
	const (
		ranks = 64
		bytes = 128 * 1024 // gradient-bucket-sized payload
		iters = 4
	)
	fmt.Printf("MPI_Allreduce(%d KiB) over %d ranks, 8x8 mesh, PR-DRB\n\n", bytes/1024, ranks)
	fmt.Printf("%-20s %12s %14s %10s\n", "algorithm", "exec(us)", "latency(us)", "paths")

	var baseline float64
	for _, alg := range []string{"ring", "recursive-doubling", "halving-doubling"} {
		// Build the schedule: compute bursts separating repeated Allreduces,
		// the shape of a training step's gradient synchronization.
		b := prdrb.NewTraceBuilder("allreduce-"+alg, ranks)
		for it := 0; it < iters; it++ {
			for r := 0; r < ranks; r++ {
				b.Compute(r, 25*prdrb.Microsecond)
			}
			if err := b.AllreduceAlg(alg, bytes); err != nil {
				panic(err)
			}
		}

		// A replayed trace runs PR-DRB with its trace-tuned thresholds.
		o, err := prdrb.Scenario{
			Experiment: prdrb.Experiment{Topology: prdrb.Mesh(8, 8), Policy: prdrb.PolicyPRDRB, Seed: 42},
			Traces:     []prdrb.MappedTrace{{Trace: b.Build()}},
			Drain:      60 * prdrb.Second,
		}.Run()
		if err != nil {
			panic(err)
		}

		exec := o.Exec.Micros()
		fmt.Printf("%-20s %12.1f %14.2f %10d", alg, exec, o.Res.GlobalLatencyUs, o.Res.Stats.PathsOpened)
		if baseline == 0 {
			baseline = exec
			fmt.Println("   (baseline)")
		} else {
			fmt.Printf("   %+.1f%% vs ring\n", -prdrb.GainPct(baseline, exec))
		}
	}
	fmt.Println("\nThe default lowering picks recursive doubling on power-of-two")
	fmt.Println("communicators and the ring otherwise (see prdrb.TraceBuilder.Allreduce).")
}
