package phase

import (
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

func TestCommMatrixAndTDC(t *testing.T) {
	b := trace.NewBuilder("t", 4)
	b.Send(0, 1, 100)
	b.Send(0, 1, 50)
	b.Send(0, 2, 10)
	b.Isend(3, 0, 7)
	b.Recv(1, 0)
	b.Recv(1, 0)
	b.Recv(2, 0)
	b.Recv(0, 3)
	b.Waitall(3)
	m := CommMatrix(b.Build())
	if m[0][1] != 150 || m[0][2] != 10 || m[3][0] != 7 {
		t.Fatalf("matrix wrong: %v", m)
	}
	avg, max := TDC(m)
	// Degrees: rank0=2, rank3=1, others 0 -> avg 0.75, max 2.
	if avg != 0.75 || max != 2 {
		t.Fatalf("TDC = %v/%v", avg, max)
	}
}

func TestRenderMatrix(t *testing.T) {
	m := [][]int64{{0, 100}, {50, 0}}
	s := RenderMatrix(m)
	if len(strings.Split(strings.TrimRight(s, "\n"), "\n")) != 2 {
		t.Fatalf("render shape wrong: %q", s)
	}
	if RenderMatrix([][]int64{{0}}) != "(empty matrix)\n" {
		t.Fatal("empty matrix rendering")
	}
}

func TestPhaseDetectionRepetition(t *testing.T) {
	// 3 identical iterations separated by big computes, plus one distinct
	// phase: expect 4 phases, 2 classes, dominant class weight 3.
	b := trace.NewBuilder("rep", 4)
	iter := func() {
		for r := 0; r < 4; r++ {
			b.Compute(r, sim.Millisecond)
		}
		b.Send(0, 1, 1000)
		b.Recv(1, 0)
		b.Send(2, 3, 1000)
		b.Recv(3, 2)
	}
	iter()
	iter()
	iter()
	for r := 0; r < 4; r++ {
		b.Compute(r, sim.Millisecond)
	}
	b.Send(1, 2, 500)
	b.Recv(2, 1)
	a := Analyze(b.Build(), 100*sim.Microsecond)
	if a.TotalPhases() != 4 {
		t.Fatalf("found %d phases, want 4", a.TotalPhases())
	}
	if len(a.Classes) != 2 {
		t.Fatalf("found %d classes, want 2", len(a.Classes))
	}
	if a.Classes[0].Weight != 3 {
		t.Fatalf("dominant class weight = %d, want 3", a.Classes[0].Weight)
	}
	rel := a.Relevant(2)
	if len(rel) != 1 || rel[0].Weight != 3 {
		t.Fatalf("Relevant(2) = %+v", rel)
	}
	if a.RepetitionWeight(2) != 3 {
		t.Fatalf("RepetitionWeight = %d", a.RepetitionWeight(2))
	}
}

func TestSmallComputesDoNotSplitPhases(t *testing.T) {
	b := trace.NewBuilder("nosplit", 2)
	b.Send(0, 1, 100)
	b.Recv(1, 0)
	b.Compute(0, 10) // tiny intra-phase compute
	b.Compute(1, 10)
	b.Send(0, 1, 100)
	b.Recv(1, 0)
	a := Analyze(b.Build(), sim.Millisecond)
	if a.TotalPhases() != 1 {
		t.Fatalf("tiny computes split the phase: %d phases", a.TotalPhases())
	}
}

func TestSignatureIgnoresMinorSizeJitter(t *testing.T) {
	a := signature([]Flow{{Src: 0, Dst: 1, Bytes: 1000}})
	b := signature([]Flow{{Src: 0, Dst: 1, Bytes: 1100}}) // same 4x bucket
	if a != b {
		t.Fatal("minor size jitter split the signature")
	}
	c := signature([]Flow{{Src: 0, Dst: 1, Bytes: 100000}})
	if a == c {
		t.Fatal("large size change kept the signature")
	}
	d := signature([]Flow{{Src: 0, Dst: 2, Bytes: 1000}})
	if a == d {
		t.Fatal("different destination kept the signature")
	}
}

// Table 2.2 shape on the real generators: every workload is dominated by
// repeated phases, and the paper's TDC claims hold (LAMMPS Chain ~7,
// Sweep3D ~4, POP <= 11).
func TestWorkloadPhaseAndTDCShapes(t *testing.T) {
	chain, err := workloads.ByName("lammps-chain", workloads.Options{})
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := TDC(CommMatrix(chain))
	if avg < 6 || avg > 8.5 {
		t.Errorf("LAMMPS Chain TDC = %.1f, paper says ~7", avg)
	}

	sw, err := workloads.ByName("sweep3d", workloads.Options{})
	if err != nil {
		t.Fatal(err)
	}
	avgS, _ := TDC(CommMatrix(sw))
	// Sweep sweeps all four diagonal directions: 4 mesh neighbours.
	if avgS < 3 || avgS > 5 {
		t.Errorf("Sweep3D TDC = %.1f, paper says ~4", avgS)
	}

	pop, err := workloads.ByName("pop", workloads.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, maxP := TDC(CommMatrix(pop))
	if maxP > 13 {
		t.Errorf("POP max TDC = %d, paper says ~11", maxP)
	}

	// Repetitiveness: most phases of POP repeat.
	a := Analyze(pop, 10*sim.Microsecond)
	if a.TotalPhases() < 5 {
		t.Fatalf("POP phases = %d", a.TotalPhases())
	}
	if w := a.RepetitionWeight(2); w < a.TotalPhases()/2 {
		t.Errorf("POP repetition weight %d of %d phases: not repetitive", w, a.TotalPhases())
	}
}
