package main

import (
	"fmt"
	"io"

	"prdrb"
	"prdrb/internal/network"
	"prdrb/internal/phase"
	"prdrb/internal/sim"
	"prdrb/internal/traffic"
)

func init() {
	register("table2.1", "Breakdown of MPI communication calls per application", table21)
	register("table2.2", "Parallel application phases and repetition weights", table22)
	register("fig2.10", "LAMMPS Chain communication matrix and TDC", commMatrixFigure("lammps-chain", "~7 (faces + diagonal residue + long partner)"))
	register("fig2.11", "LAMMPS Comb communication matrix (diagonal band)", commMatrixFigure("lammps-comb", "~4 (nearest neighbours only)"))
	register("fig2.12", "Sweep3D topological connectivity (TDC ~4)", commMatrixFigure("sweep3d", "~4 (wavefront neighbours)"))
	register("fig2.13", "POP communication matrix (diagonal bands + scattered)", commMatrixFigure("pop", "<= 11 (halo + remote partners)"))
	register("table4.1", "Mathematical definition of the synthetic patterns", table41)
}

// table21 reproduces the Table 2.1 call-mix percentages from the generated
// traces.
func table21(ctx *runCtx, w io.Writer) error {
	apps := []string{"pop", "lammps-chain", "nas-lu", "nas-mg-s", "nas-mg-a", "nas-mg-b", "nas-ft-a", "smg2000", "sweep3d"}
	calls := []struct {
		name string
		id   uint8
	}{
		{"MPI_ISend", network.MPIIsend}, {"MPI_Waitall", network.MPIWaitall},
		{"MPI_Send", network.MPISend}, {"MPI_Wait", network.MPIWait},
		{"MPI_Irecv", network.MPIIrecv}, {"MPI_Recv", network.MPIRecv},
		{"MPI_Reduce", network.MPIReduce}, {"MPI_Allreduce", network.MPIAllreduce},
		{"MPI_Barrier", network.MPIBarrier}, {"MPI_Bcast", network.MPIBcast},
		{"MPI_Sendrecv", network.MPISendrecv}, {"MPI_Alltoall", network.MPIAlltoall},
	}
	fmt.Fprintf(w, "share of logical MPI calls per application (generated traces)\n\n")
	fmt.Fprintf(w, "%-14s", "Function")
	for _, a := range apps {
		fmt.Fprintf(w, "%14s", a)
	}
	fmt.Fprintln(w)
	traces := map[string]*prdrb.Trace{}
	for _, a := range apps {
		tr, err := prdrb.Workload(a, prdrb.WorkloadOptions{})
		if err != nil {
			return err
		}
		traces[a] = tr
	}
	for _, c := range calls {
		fmt.Fprintf(w, "%-14s", c.name)
		for _, a := range apps {
			fmt.Fprintf(w, "%13.1f%%", 100*traces[a].CallShare(c.id))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\npaper reference rows: POP 34.9%%/34.9%%/29.3%% (ISend/Waitall/Allreduce); ")
	fmt.Fprintf(w, "LU ~49.8%%/49.5%% (Send/Recv); LAMMPS ~43.6%%/43.6%%/10.8%%; Sweep3D ~50%%/50%%\n")
	return nil
}

// table22 reproduces the Table 2.2 phase statistics via the PAS2P-style
// detector. Iteration counts are truncated for simulation affordability,
// so the repetition *ratios* — not the absolute weights — are the target.
func table22(ctx *runCtx, w io.Writer) error {
	iters := ctx.pick(20, 8)
	fmt.Fprintf(w, "phases detected by the windowed-signature analyzer (%d iterations per app)\n\n", iters)
	fmt.Fprintf(w, "%-18s %12s %10s %8s %10s\n", "application", "total_phases", "relevant", "weight", "rep_ratio")
	for _, a := range []string{"lammps-comb", "lammps-chain", "nas-mg-s", "nas-mg-a", "nas-mg-b", "nas-ft-a", "nas-ft-b", "smg2000", "sweep3d", "pop", "nas-lu"} {
		tr, err := prdrb.Workload(a, prdrb.WorkloadOptions{Iterations: iters})
		if err != nil {
			return err
		}
		an := phase.Analyze(tr, 10*sim.Microsecond)
		rel := an.Relevant(2)
		weight := an.RepetitionWeight(2)
		ratio := 0.0
		if an.TotalPhases() > 0 {
			ratio = float64(weight) / float64(an.TotalPhases())
		}
		fmt.Fprintf(w, "%-18s %12d %10d %8d %9.0f%%\n", a, an.TotalPhases(), len(rel), weight, 100*ratio)
	}
	fmt.Fprintf(w, "\npaper shape: every application is dominated by repeated phases (e.g. POP 120 of 140\n")
	fmt.Fprintf(w, "phases relevant, Sweep3D 5 phases repeated 46000x); the detector must report a high\n")
	fmt.Fprintf(w, "repetition ratio for all workloads.\n")
	return nil
}

func commMatrixFigure(app, paperTDC string) runFunc {
	return func(ctx *runCtx, w io.Writer) error {
		tr, err := prdrb.Workload(app, prdrb.WorkloadOptions{})
		if err != nil {
			return err
		}
		m := phase.CommMatrix(tr)
		avg, max := phase.TDC(m)
		fmt.Fprintf(w, "%s, %d ranks: point-to-point byte volume (row=src, col=dst)\n\n", app, tr.Ranks)
		fmt.Fprint(w, phase.RenderMatrix(m))
		fmt.Fprintf(w, "\nTDC: avg %.1f, max %d   (paper: %s)\n", avg, max, paperTDC)
		return nil
	}
}

// table41 prints and spot-checks the Table 4.1 pattern formulas.
func table41(ctx *runCtx, w io.Writer) error {
	fmt.Fprintf(w, "pattern            definition                 example over 64 nodes (src -> dst)\n")
	rows := []struct {
		name, def string
	}{
		{"bitreversal", "d_i = s_(n-1-i)"},
		{"shuffle", "d_i = s_((i-1) mod n)"},
		{"transpose", "d_i = s_((i+n/2) mod n)"},
		{"uniform", "d ~ U({0..N-1} \\ {s})"},
	}
	for _, r := range rows {
		p, err := traffic.ByName(r.name, 64)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %-26s", r.name, r.def)
		rng := sim.NewRNG(1)
		for _, s := range []int{1, 5, 23} {
			fmt.Fprintf(w, "  %2d->%-2d", s, p.Destination(prdrb.NodeID(s), rng))
		}
		fmt.Fprintln(w)
	}
	// Bijectivity check over the deterministic permutations.
	for _, name := range []string{"bitreversal", "shuffle", "transpose"} {
		p, _ := traffic.ByName(name, 64)
		seen := map[prdrb.NodeID]bool{}
		for s := 0; s < 64; s++ {
			seen[p.Destination(prdrb.NodeID(s), nil)] = true
		}
		if len(seen) != 64 {
			return fmt.Errorf("%s is not a permutation", name)
		}
	}
	fmt.Fprintf(w, "\nall three deterministic patterns verified bijective over 64 nodes\n")
	return nil
}
