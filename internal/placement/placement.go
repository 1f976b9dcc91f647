// Package placement implements process-to-node mapping optimization. The
// paper repeatedly notes that routing performance "depends mostly on the
// communication pattern used and the mapping of nodes to processors"
// (§3.1) and its analysis framework extracts exactly the inputs needed —
// the communication matrix and the topology (§2.2.6, §4.7). This package
// closes that loop: given a workload's communication matrix, it searches
// for a rank->terminal mapping that minimizes byte-weighted hop distance,
// so experiments can separate what mapping buys from what routing buys.
package placement

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Cost is the byte-weighted hop distance of a mapping: for every rank pair
// (i, j), bytes(i,j) times the router distance between their terminals.
// Lower is better; it is the standard mapping objective (cuts both latency
// and the link-sharing opportunities that cause contention).
func Cost(topo topology.Topology, matrix [][]int64, mapping []topology.NodeID) (int64, error) {
	n := len(matrix)
	if len(mapping) != n {
		return 0, fmt.Errorf("placement: mapping has %d entries for %d ranks", len(mapping), n)
	}
	attach := make([]topology.RouterID, n)
	for i, node := range mapping {
		if int(node) >= topo.NumTerminals() || node < 0 {
			return 0, fmt.Errorf("placement: node %d out of range", node)
		}
		attach[i], _ = topo.TerminalAttach(node)
	}
	var total int64
	for i := range matrix {
		for j, bytes := range matrix[i] {
			if bytes == 0 || i == j {
				continue
			}
			total += bytes * int64(topo.Distance(attach[i], attach[j]))
		}
	}
	return total, nil
}

// Identity returns the trivial mapping rank i -> node i.
func Identity(n int) []topology.NodeID {
	m := make([]topology.NodeID, n)
	for i := range m {
		m[i] = topology.NodeID(i)
	}
	return m
}

// restarts is how many searches Optimize runs, the first from identity and
// the rest from random permutations; maxIterations caps each search's
// pairwise swaps at 20 * ranks^2.
const restarts, maxIterations = 2, 200_000

// Optimize searches for a low-cost mapping by randomized pairwise swaps
// (hill climbing with random restarts). The returned mapping always costs
// no more than the identity mapping.
func Optimize(topo topology.Topology, matrix [][]int64, rng *sim.RNG) ([]topology.NodeID, int64, error) {
	n := len(matrix)
	if n == 0 {
		return nil, 0, fmt.Errorf("placement: empty matrix")
	}
	if n > topo.NumTerminals() {
		return nil, 0, fmt.Errorf("placement: %d ranks exceed %d terminals", n, topo.NumTerminals())
	}
	for i := range matrix {
		if len(matrix[i]) != n {
			return nil, 0, fmt.Errorf("placement: matrix row %d has %d columns", i, len(matrix[i]))
		}
	}

	best := Identity(n)
	bestCost, err := Cost(topo, matrix, best)
	if err != nil {
		return nil, 0, err
	}

	iters := min(20*n*n, maxIterations)
	for restart := 0; restart < restarts; restart++ {
		cur := Identity(n)
		if restart > 0 {
			rng.Shuffle(n, func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		}
		curCost, _ := Cost(topo, matrix, cur)
		for it := 0; it < iters; it++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			delta := swapDelta(topo, matrix, cur, i, j)
			if delta < 0 {
				cur[i], cur[j] = cur[j], cur[i]
				curCost += delta
			}
		}
		if curCost < bestCost {
			bestCost = curCost
			best = append(best[:0:0], cur...)
		}
	}
	return best, bestCost, nil
}

// swapDelta computes the exact cost change of swapping the placements of
// ranks i and j: the terms involving either rank are summed before and
// after the swap. The i<->j term appears twice in both sums, so the
// double count cancels in the subtraction.
func swapDelta(topo topology.Topology, matrix [][]int64, mapping []topology.NodeID, i, j int) int64 {
	before := rankCost(topo, matrix, mapping, i) + rankCost(topo, matrix, mapping, j)
	mapping[i], mapping[j] = mapping[j], mapping[i]
	after := rankCost(topo, matrix, mapping, i) + rankCost(topo, matrix, mapping, j)
	mapping[i], mapping[j] = mapping[j], mapping[i]
	return after - before
}

// rankCost sums every objective term involving one rank under the current
// mapping.
func rankCost(topo topology.Topology, matrix [][]int64, mapping []topology.NodeID, rank int) int64 {
	at, _ := topo.TerminalAttach(mapping[rank])
	var c int64
	for k := range matrix {
		if k == rank {
			continue
		}
		other, _ := topo.TerminalAttach(mapping[k])
		d := int64(topo.Distance(at, other))
		c += matrix[rank][k]*d + matrix[k][rank]*d
	}
	return c
}
