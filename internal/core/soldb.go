package core

import (
	"slices"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Signature is a normalized (sorted, deduplicated) contending-flow pattern
// — the key of the saved-solutions database (§3.2.8).
type Signature []network.FlowKey

func compareFlows(a, b network.FlowKey) int {
	if a.Src != b.Src {
		return int(a.Src) - int(b.Src)
	}
	return int(a.Dst) - int(b.Dst)
}

// NewSignature normalizes a flow set into a signature, capped at max
// flows. It works in place: flows is reordered and the result aliases it,
// so a caller that reuses the buffer must be done with the signature first
// (SolutionDB.Save copies what it keeps).
func NewSignature(flows []network.FlowKey, max int) Signature {
	slices.SortFunc(flows, compareFlows)
	out := Signature(slices.Compact(flows))
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Similarity returns the Dice coefficient of two signatures:
// 2|A∩B| / (|A|+|B|), in [0,1]. The paper requires >= 0.80 for a pattern to
// count as "already analyzed" (§3.2.8 approximation matching). Signatures
// are sorted sets, so the intersection is one merge pass.
func Similarity(a, b Signature) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	common := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := compareFlows(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return 2 * float64(common) / float64(len(a)+len(b))
}

// Solution is one saved congestion answer: the pattern that caused it and
// the path set (with latency weights) that controlled it (Fig 3.14).
type Solution struct {
	Sig     Signature
	paths   []pathState
	Hits    int64 // times re-applied
	Updates int64 // times refreshed by a better/later H->M transition
	SavedAt sim.Time
}

// SolutionDB is a source node's memory of analyzed congestion situations,
// scoped per destination (each metapath saves its own solutions).
type SolutionDB struct {
	perDst map[int][]*Solution // made by the first Save
	// MaxPerDst bounds memory; oldest entries are evicted.
	MaxPerDst int
}

// NewSolutionDB returns an empty database.
func NewSolutionDB() *SolutionDB {
	return &SolutionDB{MaxPerDst: 32}
}

// Lookup returns the best-matching saved solution for dst whose signature
// similarity meets minSim, preferring higher similarity then more hits.
func (db *SolutionDB) Lookup(dst int, sig Signature, minSim float64) *Solution {
	var best *Solution
	bestSim := 0.0
	for _, s := range db.perDst[dst] {
		// At most the shorter signature is shared, which bounds the Dice
		// coefficient from the lengths alone.
		if la, lb := len(sig), len(s.Sig); 2*float64(min(la, lb))/float64(la+lb) < minSim {
			continue
		}
		sim := Similarity(sig, s.Sig)
		if sim < minSim {
			continue
		}
		if best == nil || sim > bestSim || (sim == bestSim && s.Hits > best.Hits) {
			best, bestSim = s, sim
		}
	}
	return best
}

// Save stores (or refreshes) the solution for dst under sig. When an
// existing entry matches sig at minSim it is updated in place — the paper's
// "best solution saved may be further updated" (§3.2). Both arguments may
// live in a caller's reused storage — sig in an evidence buffer, paths in
// a metapath — so Save copies their values into storage of its own,
// reusing an updated entry's arrays. The copied path states alias their
// waypoints, which never change once a path opens (pathState.path).
func (db *SolutionDB) Save(dst int, sig Signature, paths []pathState, minSim float64, now sim.Time) *Solution {
	if len(sig) == 0 {
		return nil
	}
	if existing := db.Lookup(dst, sig, minSim); existing != nil {
		existing.paths = append(existing.paths[:0], paths...)
		existing.Sig = append(existing.Sig[:0], sig...)
		existing.Updates++
		return existing
	}
	if db.perDst == nil {
		db.perDst = make(map[int][]*Solution)
	}
	s := &Solution{Sig: slices.Clone(sig), paths: slices.Clone(paths), SavedAt: now}
	lst := append(db.perDst[dst], s)
	if len(lst) > db.MaxPerDst {
		lst = lst[1:]
	}
	db.perDst[dst] = lst
	return s
}

// Invalidate removes every solution for dst whose path set contains a path
// rejected by usable (a path crossing a failed link). A stale solution is
// worse than none: re-applying it would aim traffic straight at the dead
// link. It returns the number of solutions removed.
func (db *SolutionDB) Invalidate(dst int, usable func(p topology.Path) bool) int {
	lst := db.perDst[dst]
	kept := lst[:0]
	removed := 0
	for _, s := range lst {
		ok := true
		for i := range s.paths {
			if !usable(s.paths[i].path) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, s)
		} else {
			removed++
		}
	}
	if removed > 0 {
		db.perDst[dst] = kept
		if len(kept) == 0 {
			delete(db.perDst, dst)
		}
	}
	return removed
}

// Size returns the number of saved solutions across destinations.
func (db *SolutionDB) Size() int {
	n := 0
	for _, lst := range db.perDst {
		n += len(lst)
	}
	return n
}

// Patterns returns every stored solution (for reporting).
func (db *SolutionDB) Patterns() []*Solution {
	var out []*Solution
	for _, lst := range db.perDst {
		out = append(out, lst...)
	}
	return out
}
