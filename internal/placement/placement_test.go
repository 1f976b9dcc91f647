package placement

import (
	"testing"
	"testing/quick"

	"prdrb/internal/phase"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/workloads"
)

func TestCostIdentity(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	m := make([][]int64, 4)
	for i := range m {
		m[i] = make([]int64, 4)
	}
	m[0][1] = 100 // nodes 0 and 1 are adjacent: distance 1
	m[0][3] = 10  // nodes 0 and 3: distance 3
	c, err := Cost(topo, m, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if c != 100*1+10*3 {
		t.Fatalf("cost = %d, want 130", c)
	}
}

func TestCostValidation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	m := [][]int64{{0, 1}, {1, 0}}
	if _, err := Cost(topo, m, Identity(3)); err == nil {
		t.Fatal("mapping length mismatch accepted")
	}
	if _, err := Cost(topo, m, []topology.NodeID{0, 99}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// A heavy pair placed at opposite corners must be pulled together.
func TestOptimizePullsHeavyPairTogether(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	const ranks = 2
	m := [][]int64{{0, 1 << 20}, {1 << 20, 0}}
	// Start is identity: 0 and 1 adjacent already — instead map ranks over
	// a bigger matrix: use 4 ranks with the heavy pair 0-3.
	m4 := make([][]int64, 4)
	for i := range m4 {
		m4[i] = make([]int64, 4)
	}
	m4[0][3] = 1 << 20
	m4[3][0] = 1 << 20
	best, bestCost, err := Optimize(topo, m4, Options{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	idCost, _ := Cost(topo, m4, Identity(4))
	if bestCost > idCost {
		t.Fatalf("optimizer worsened cost: %d > %d", bestCost, idCost)
	}
	r0, _ := topo.TerminalAttach(best[0])
	r3, _ := topo.TerminalAttach(best[3])
	if topo.Distance(r0, r3) != 1 {
		t.Fatalf("heavy pair ended %d hops apart", topo.Distance(r0, r3))
	}
	_ = ranks
	_ = m
}

// Property: the optimizer returns a valid permutation and never a cost
// above identity.
func TestOptimizePermutationProperty(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	f := func(seed uint64, weights [16]uint8) bool {
		const n = 8
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		for i := 0; i < 16; i++ {
			src, dst := i%n, (i*3+1)%n
			if src != dst {
				m[src][dst] += int64(weights[i])
			}
		}
		best, bestCost, err := Optimize(topo, m, Options{Iterations: 2000, Restarts: 1}, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		seen := map[topology.NodeID]bool{}
		for _, v := range best {
			if seen[v] || int(v) >= topo.NumTerminals() {
				return false
			}
			seen[v] = true
		}
		idCost, _ := Cost(topo, m, Identity(n))
		check, _ := Cost(topo, m, best)
		return bestCost <= idCost && check == bestCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapDeltaExact(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	rng := sim.NewRNG(5)
	const n = 8
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = int64(rng.Intn(1000))
			}
		}
	}
	mapping := Identity(n)
	for trial := 0; trial < 50; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		before, _ := Cost(topo, m, mapping)
		delta := swapDelta(topo, m, mapping, i, j)
		mapping[i], mapping[j] = mapping[j], mapping[i]
		after, _ := Cost(topo, m, mapping)
		if after-before != delta {
			t.Fatalf("swapDelta %d but real delta %d", delta, after-before)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	if _, _, err := Optimize(topo, nil, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("empty matrix accepted")
	}
	big := make([][]int64, 9)
	for i := range big {
		big[i] = make([]int64, 9)
	}
	if _, _, err := Optimize(topo, big, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("oversized matrix accepted")
	}
	ragged := [][]int64{{0, 1}, {1}}
	if _, _, err := Optimize(topo, ragged, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

// On a real workload, the optimized mapping must cut the hop-weighted
// volume versus identity placement on the fat tree.
func TestOptimizeRealWorkload(t *testing.T) {
	topo := topology.NewKAryNTree(4, 3)
	tr, err := workloads.ByName("lammps-chain", workloads.Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := phase.CommMatrix(tr)
	best, bestCost, err := Optimize(topo, m, Options{Iterations: 30000, Restarts: 2}, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	idCost, _ := Cost(topo, m, Identity(tr.Ranks))
	if bestCost >= idCost {
		t.Fatalf("no improvement: %d vs identity %d", bestCost, idCost)
	}
	if len(best) != tr.Ranks {
		t.Fatal("mapping size wrong")
	}
}
