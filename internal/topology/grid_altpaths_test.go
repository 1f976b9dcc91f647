package topology

import (
	"slices"
	"sort"
	"testing"
)

// refGridAlternativePaths and refRing are Grid.AlternativePaths and Grid.ring
// as they were while the candidates were sorted with sort.SliceStable and the
// ring was enumerated by a closure allocating a coordinate vector per
// router: the oracle for the versions in grid.go.
func refGridAlternativePaths(g *Grid, src, dst NodeID, max int) []Path {
	sr, _ := g.TerminalAttach(src)
	dr, _ := g.TerminalAttach(dst)
	if sr == dr || max <= 0 {
		return nil
	}
	direct := g.Distance(sr, dr)
	var out []Path
	type cand struct {
		p    Path
		cost int
	}
	for ring := 1; ring <= g.rings && len(out) < max; ring++ {
		srcSide := refRing(g, sr, ring)
		dstSide := refRing(g, dr, ring)
		var cands []cand
		for _, a := range srcSide {
			for _, b := range dstSide {
				if a == dr || b == sr || a == sr || b == dr {
					continue
				}
				var p Path
				if a == b {
					p = Path{a}
				} else {
					p = Path{a, b}
				}
				cost := g.Distance(sr, a) + g.Distance(a, b) + g.Distance(b, dr)
				if cost > 2*direct+2 {
					continue
				}
				cands = append(cands, cand{p: p, cost: cost})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].cost != cands[j].cost {
				return cands[i].cost < cands[j].cost
			}
			return lessPath(cands[i].p, cands[j].p)
		})
		for _, c := range cands {
			if containsPath(out, c.p) {
				continue
			}
			out = append(out, c.p)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func refRing(g *Grid, r RouterID, dist int) []RouterID {
	base := g.CoordOf(r)
	var out []RouterID
	var rec func(d, remaining int, cur []int)
	rec = func(d, remaining int, cur []int) {
		if d == len(g.Dims) {
			if remaining != 0 {
				return
			}
			c := make([]int, len(base))
			for i := range base {
				x := base[i] + cur[i]
				if g.Wrap {
					x = (x%g.Dims[i] + g.Dims[i]) % g.Dims[i]
				} else if x < 0 || x >= g.Dims[i] {
					return
				}
				c[i] = x
			}
			rr := g.At(c)
			if rr != r {
				out = append(out, rr)
			}
			return
		}
		for v := -remaining; v <= remaining; v++ {
			cur[d] = v
			rec(d+1, remaining-abs(v), cur)
		}
		cur[d] = 0
	}
	rec(0, dist, make([]int, len(g.Dims)))
	seen := make(map[RouterID]bool, len(out))
	deduped := out[:0]
	for _, r := range out {
		if !seen[r] {
			seen[r] = true
			deduped = append(deduped, r)
		}
	}
	return deduped
}

// TestGridAlternativePathsMatchReference compares every (src, dst) pair of
// the two 64-node grids of the policy sweep, and of smaller and
// higher-dimensional shapes whose rings wrap onto themselves, with the
// reference: the same paths in the same order at every budget, and the same
// rings.
func TestGridAlternativePathsMatchReference(t *testing.T) {
	for _, g := range []*Grid{
		NewMesh(8, 8), NewTorus(8, 8),
		NewMesh(2, 1), NewMesh(5, 3), NewTorus(3, 3), NewTorus(4, 5),
		NewGrid([]int{3, 2, 4}, false), NewTorus3D(3, 3, 4), NewGrid([]int{2, 2, 2, 2}, false), NewGrid([]int{7}, true),
	} {
		for r := RouterID(0); int(r) < g.NumRouters(); r++ {
			for dist := 0; dist <= g.rings+1; dist++ {
				if got, want := g.ring(nil, r, dist), refRing(g, r, dist); !slices.Equal(got, want) {
					t.Fatalf("%s: ring(%d, %d) = %v, reference %v", g.Name(), r, dist, got, want)
				}
			}
		}
		budgets := []int{1, 8, 64}
		if g.NumTerminals() < 64 {
			budgets = []int{0, 1, 2, 3, 6, 8, 16, 64}
		}
		for _, max := range budgets {
			for s := 0; s < g.NumTerminals(); s++ {
				for d := 0; d < g.NumTerminals(); d++ {
					got := g.AlternativePaths(NodeID(s), NodeID(d), max)
					want := refGridAlternativePaths(g, NodeID(s), NodeID(d), max)
					if !slices.EqualFunc(got, want, Path.Equal) || (got == nil) != (want == nil) {
						t.Fatalf("%s: AlternativePaths(%d, %d, %d) = %v, reference %v", g.Name(), s, d, max, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkGridAlternativePaths enumerates the 4032 ordered pairs of
// mesh-8x8 at the budget core asks for (2 × MaxPaths = 8): uniform traffic
// touches all of them against a 256-entry PathCache, so the enumeration
// itself is on that cell's profile.
func BenchmarkGridAlternativePaths(b *testing.B) {
	for _, g := range []*Grid{NewMesh(8, 8), NewTorus(8, 8)} {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				for s := 0; s < 64; s++ {
					for d := 0; d < 64; d++ {
						sink += len(g.AlternativePaths(NodeID(s), NodeID(d), 8))
					}
				}
			}
			if sink == 0 {
				b.Fatal("no paths")
			}
		})
	}
}
