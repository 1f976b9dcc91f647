package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refDragonflyAlternativePaths is Dragonfly.AlternativePaths as it was while
// every candidate was a heap Path built by a closure (which also built a
// temporary path to cost it) and the candidates were sorted with
// sort.SliceStable: the oracle for the version in dragonfly.go.
func refDragonflyAlternativePaths(d *Dragonfly, src, dst NodeID, max int) []Path {
	sr, _ := d.TerminalAttach(src)
	dr, _ := d.TerminalAttach(dst)
	if sr == dr || max <= 0 {
		return nil
	}
	gs, gd := d.Group(sr), d.Group(dr)
	direct := d.Distance(sr, dr)
	type cand struct {
		p    Path
		cost int
		tie  int
	}
	var cands []cand
	add := func(p Path, tie int) {
		cost := 0
		at := sr
		for _, w := range append(append(Path{}, p...), dr) {
			cost += d.Distance(at, w)
			at = w
		}
		if cost > 2*direct+2 {
			return
		}
		cands = append(cands, cand{p: p, cost: cost, tie: tie})
	}
	if gs == gd {
		for i := 0; i < d.A; i++ {
			w := d.RouterAt(gs, (i+int(src))%d.A)
			if w == sr || w == dr {
				continue
			}
			add(Path{w}, i)
		}
	} else {
		ls := d.links(gs, gd)
		chosen, _ := d.routeLink(sr, gs, gd, dr)
		for i := range ls {
			l := ls[(i+int(src))%len(ls)]
			if l == chosen {
				continue
			}
			if l.src == sr {
				add(Path{l.dst}, i)
			} else {
				add(Path{l.src, l.dst}, i)
			}
		}
		for i := 0; i < d.G; i++ {
			gv := (gd + 1 + i + int(src)) % d.G
			if gv == gs || gv == gd {
				continue
			}
			vls := d.links(gs, gv)
			w := vls[int(src)%len(vls)].dst
			add(Path{w}, len(ls)+i)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].tie < cands[j].tie
	})
	var out []Path
	for _, c := range cands {
		if containsPath(out, c.p) {
			continue
		}
		out = append(out, c.p)
		if len(out) >= max {
			break
		}
	}
	return out
}

// refTreeAlternativePaths, refCommonAncestors and refAncestorsAt are
// KAryNTree.AlternativePaths and its helpers as they were while the
// ancestors were materialised, copied and sorted through reflection.
func refTreeAlternativePaths(t *KAryNTree, src, dst NodeID, max int) []Path {
	if src == dst || max <= 0 {
		return nil
	}
	ncas := refCommonAncestors(t, src, dst)
	if len(ncas) == 0 {
		return nil
	}
	defaultNCA := t.deterministicNCA(src, dst)
	var out []Path
	add := func(r RouterID) {
		if r == defaultNCA || len(out) >= max {
			return
		}
		p := Path{r}
		if !containsPath(out, p) {
			out = append(out, p)
		}
	}
	sorted := append([]RouterID(nil), ncas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	off := int(src) % len(sorted)
	for range sorted {
		add(sorted[off])
		off = (off + 1) % len(sorted)
	}
	lvl := t.Level(ncas[0])
	if lvl+1 <= t.N-1 && len(out) < max {
		higher := refAncestorsAt(t, src, lvl+1)
		off = int(dst) % len(higher)
		for range higher {
			add(higher[off])
			off = (off + 1) % len(higher)
		}
	}
	return out
}

func refCommonAncestors(t *KAryNTree, src, dst NodeID) []RouterID {
	sw, dw := int(src)/t.K, int(dst)/t.K
	if src == dst {
		return nil
	}
	lvl := 0
	for i := t.N - 2; i >= 0; i-- {
		if t.digit(sw, i) != t.digit(dw, i) {
			lvl = i + 1
			break
		}
	}
	return refAncestorsAt(t, src, lvl)
}

func refAncestorsAt(t *KAryNTree, n NodeID, level int) []RouterID {
	base := int(n) / t.K
	count := 1
	for i := 0; i < level; i++ {
		count *= t.K
	}
	fixed := base / count * count
	out := make([]RouterID, 0, count)
	for low := 0; low < count; low++ {
		out = append(out, t.Switch(level, fixed+low))
	}
	return out
}

// samePaths is element-for-element equality that also tells nil from empty.
func samePaths(got, want []Path) bool {
	return slices.EqualFunc(got, want, Path.Equal) && (got == nil) == (want == nil)
}

var oracleBudgets = []int{1, 8, 12, 64}

// TestDragonflyAlternativePathsMatchReference compares every (src, dst) pair
// of the small dragonflies and 20,000 seeded pairs of the 4096-node one with
// the reference, at the budget core asks for (2 × MaxPaths = 8), at 1, and
// at budgets above what a pair offers.
func TestDragonflyAlternativePathsMatchReference(t *testing.T) {
	check := func(d *Dragonfly, s, o NodeID) {
		for _, max := range oracleBudgets {
			got, want := d.AlternativePaths(s, o, max), refDragonflyAlternativePaths(d, s, o, max)
			if !samePaths(got, want) {
				t.Fatalf("%s: AlternativePaths(%d, %d, %d) = %v, reference %v", d.Name(), s, o, max, got, want)
			}
		}
	}
	for _, d := range []*Dragonfly{
		NewDragonfly(4, 8, 2, 2), NewDragonfly(2, 3, 1, 1), NewDragonfly(4, 5, 1, 2), NewDragonfly(4, 9, 2, 2),
	} {
		for s := 0; s < d.NumTerminals(); s++ {
			for o := 0; o < d.NumTerminals(); o++ {
				check(d, NodeID(s), NodeID(o))
			}
		}
	}
	d := NewDragonfly(16, 32, 8, 8)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20000; i++ {
		check(d, NodeID(rng.Intn(4096)), NodeID(rng.Intn(4096)))
	}
}

// TestTreeAlternativePathsMatchReference does the same for ft-4-3 and a
// binary tree, and pins the NCA range to its materialised form.
func TestTreeAlternativePathsMatchReference(t *testing.T) {
	for _, ft := range []*KAryNTree{NewKAryNTree(4, 3), NewKAryNTree(2, 4)} {
		for s := 0; s < ft.NumTerminals(); s++ {
			for o := 0; o < ft.NumTerminals(); o++ {
				src, dst := NodeID(s), NodeID(o)
				if s != o {
					first, count := ft.ancestorsAt(src, ft.ncaLevel(src, dst))
					got := make([]RouterID, count)
					for i := range got {
						got[i] = first + RouterID(i)
					}
					if want := refCommonAncestors(ft, src, dst); !slices.Equal(got, want) {
						t.Fatalf("%s: NCAs of %d and %d are %v, reference %v", ft.Name(), s, o, got, want)
					}
				}
				for _, max := range oracleBudgets {
					got, want := ft.AlternativePaths(src, dst, max), refTreeAlternativePaths(ft, src, dst, max)
					if !samePaths(got, want) {
						t.Fatalf("%s: AlternativePaths(%d, %d, %d) = %v, reference %v", ft.Name(), s, o, max, got, want)
					}
				}
			}
		}
	}
}

// TestAlternativePathsAllocs bounds what one enumeration allocates: the
// slice of paths and the one backing array they share on the dragonfly and
// the tree, and on the grid the count the typed sort left it with, pinned so
// it cannot grow back.
func TestAlternativePathsAllocs(t *testing.T) {
	for _, c := range []struct {
		topo     Topology
		src, dst NodeID
		limit    float64
	}{
		{NewDragonfly(16, 32, 8, 8), 5, 9, 2},    // same router group
		{NewDragonfly(16, 32, 8, 8), 5, 4000, 2}, // 4-5 parallel links + 30 third groups
		{NewDragonfly(4, 8, 2, 2), 0, 63, 2},
		{NewKAryNTree(4, 3), 0, 63, 2},
		{NewKAryNTree(4, 3), 0, 5, 2},
		{NewMesh(8, 8), 0, 63, 20},
		{NewTorus(8, 8), 0, 27, 19},
	} {
		if len(c.topo.AlternativePaths(c.src, c.dst, 8)) == 0 {
			t.Fatalf("%s: no alternative paths %d -> %d", c.topo.Name(), c.src, c.dst)
		}
		got := testing.AllocsPerRun(50, func() { c.topo.AlternativePaths(c.src, c.dst, 8) })
		if raceBuild && c.limit > 2 {
			continue // the grid's exact count holds for the plain build only
		}
		if got > c.limit {
			t.Errorf("%s: AlternativePaths(%d, %d, 8) allocates %.0f times, want <= %.0f", c.topo.Name(), c.src, c.dst, got, c.limit)
		}
	}
}

// TestAlternativePathsAppendCopies: the paths of one enumeration share a
// backing array, so each must be capped at its own length — an append to
// one may not overwrite the first waypoint of the next.
func TestAlternativePathsAppendCopies(t *testing.T) {
	for _, topo := range []Topology{NewDragonfly(4, 8, 2, 2), NewKAryNTree(4, 3)} {
		paths := topo.AlternativePaths(0, 63, 8)
		want := fmt.Sprint(paths)
		for _, p := range paths {
			if cap(p) != len(p) {
				t.Fatalf("%s: path %v has spare capacity %d", topo.Name(), p, cap(p)-len(p))
			}
			_ = append(p, None)
		}
		if got := fmt.Sprint(paths); got != want {
			t.Fatalf("%s: append through a path changed the enumeration: %s, was %s", topo.Name(), got, want)
		}
	}
}

// TestAlternativePathsSharedTopology enumerates on one topology value from
// two goroutines, as the controllers of two shards do: under -race this is
// what forbids enumeration scratch on the topology itself.
func TestAlternativePathsSharedTopology(t *testing.T) {
	for _, topo := range []Topology{NewDragonfly(4, 8, 2, 2), NewKAryNTree(4, 3), NewMesh(8, 8)} {
		n := topo.NumTerminals()
		want := make([][]Path, n*n)
		for i := range want {
			want[i] = topo.AlternativePaths(NodeID(i/n), NodeID(i%n), 8)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range want {
					i := (k + g*len(want)/2) % len(want)
					if got := topo.AlternativePaths(NodeID(i/n), NodeID(i%n), 8); !samePaths(got, want[i]) {
						t.Errorf("%s: goroutine %d: AlternativePaths(%d, %d, 8) = %v, serial %v", topo.Name(), g, i/n, i%n, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
