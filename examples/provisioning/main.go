// Provisioning demonstrates the "PR-DRB Models" open lines of thesis §5.2:
// using the simulation models for capacity planning and energy analysis.
// It analyzes each workload's offline link demand over the fat tree (which
// links an application actually needs, where its bottlenecks sit), then
// runs one workload and reports the link-energy picture, including what a
// pattern-aware idle-gating policy would save.
package main

import (
	"fmt"

	"prdrb"
)

func main() {
	topo := prdrb.FatTree(4, 3)

	fmt.Println("offline provisioning analysis (deterministic routing), 64 ranks")
	fmt.Printf("\n%-15s %10s %12s %14s\n", "workload", "footprint", "used links", "hottest (MB)")
	for _, name := range []string{"sweep3d", "lammps-comb", "lammps-chain", "pop", "nas-mg-b"} {
		tr, err := prdrb.Workload(name, prdrb.WorkloadOptions{Iterations: 8})
		if err != nil {
			panic(err)
		}
		d, err := prdrb.AnalyzeDemand(topo, tr, nil)
		if err != nil {
			panic(err)
		}
		hot := 0.0
		if len(d.Links) > 0 {
			hot = float64(d.Links[0].Bytes) / 1e6
		}
		fmt.Printf("%-15s %9.0f%% %12d %14.2f\n",
			name, 100*d.FootprintShare(), d.UsedLinks, hot)
	}
	fmt.Println("\nNearest-neighbour codes (sweep3d) touch a fraction of the fabric — they can")
	fmt.Println("share a partition; POP/MG need the core links and deserve dedicated capacity.")

	// Detailed report for one workload.
	tr, _ := prdrb.Workload("pop", prdrb.WorkloadOptions{Iterations: 8})
	d, _ := prdrb.AnalyzeDemand(topo, tr, nil)
	fmt.Println("\nPOP demand detail:")
	fmt.Print(d.Report(topo, 6))

	// Energy: run POP under PR-DRB and convert link occupancy to joules.
	o, err := prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: topo, Policy: prdrb.PolicyPRDRB, Seed: 3},
		Traces:     []prdrb.MappedTrace{{Trace: tr}},
		Drain:      20 * prdrb.Second,
	}.Run()
	if err != nil {
		panic(err)
	}
	energy := o.Sim.Energy(prdrb.DefaultEnergyModel())
	fmt.Println("\nenergy (measured link occupancy, QDR-class power figures):")
	fmt.Println(" ", energy)
	fmt.Printf("  an idle-gating policy informed by the predictive module's pattern knowledge\n")
	fmt.Printf("  could cut link energy by %.1f%% on this run (%d of %d links never used)\n",
		energy.SavingsPct(), energy.IdleLinks, energy.Links)
}
