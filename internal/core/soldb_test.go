package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/topology"
)

// refNewSignature, refSimilarity and refLookup are the solution database's
// matching as it was while normalisation deduplicated through a map and
// sorted through reflection, every comparison built a map[FlowKey]bool, and
// Lookup compared against every entry: the oracle for soldb.go.
func refNewSignature(flows []network.FlowKey, max int) Signature {
	seen := make(map[network.FlowKey]bool, len(flows))
	out := make(Signature, 0, len(flows))
	for _, f := range flows {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func refSimilarity(a, b Signature) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[network.FlowKey]bool, len(a))
	for _, f := range a {
		set[f] = true
	}
	common := 0
	for _, f := range b {
		if set[f] {
			common++
		}
	}
	return 2 * float64(common) / float64(len(a)+len(b))
}

func refLookup(db *SolutionDB, dst int, sig Signature, minSim float64) *Solution {
	var best *Solution
	bestSim := 0.0
	for _, s := range db.perDst[dst] {
		sim := refSimilarity(sig, s.Sig)
		if sim < minSim {
			continue
		}
		if best == nil || sim > bestSim || (sim == bestSim && s.Hits > best.Hits) {
			best, bestSim = s, sim
		}
	}
	return best
}

// randomFlows draws n flows (duplicates likely) from a small key space, so
// random signatures overlap the way contending patterns do.
func randomFlows(rng *rand.Rand, n int) []network.FlowKey {
	flows := make([]network.FlowKey, n)
	for i := range flows {
		flows[i] = network.FlowKey{Src: topology.NodeID(rng.Intn(6)), Dst: topology.NodeID(rng.Intn(4))}
	}
	return flows
}

func TestSignatureAndSimilarityMatchReference(t *testing.T) {
	key := func(s, d int) network.FlowKey {
		return network.FlowKey{Src: topology.NodeID(s), Dst: topology.NodeID(d)}
	}
	for _, c := range []struct {
		name string
		a, b Signature
		want float64
	}{
		{"both empty", nil, nil, 1},
		{"one empty", Signature{key(1, 2)}, nil, 0},
		{"other empty", Signature{}, Signature{key(1, 2)}, 0},
		{"equal", Signature{key(1, 2), key(3, 4)}, Signature{key(1, 2), key(3, 4)}, 1},
		{"disjoint", Signature{key(1, 2), key(3, 4)}, Signature{key(1, 3), key(5, 0)}, 0},
		{"interleaved", Signature{key(1, 2), key(2, 0), key(3, 4)}, Signature{key(0, 9), key(2, 0), key(2, 1), key(3, 4), key(7, 7)}, 0.5},
		{"same src, dst decides", Signature{key(1, 1), key(1, 3)}, Signature{key(1, 2), key(1, 3)}, 0.5},
		{"prefix", Signature{key(1, 1)}, Signature{key(1, 1), key(1, 2), key(1, 3)}, 0.5},
	} {
		if got, ref := Similarity(c.a, c.b), refSimilarity(c.a, c.b); got != c.want || ref != c.want {
			t.Errorf("%s: Similarity = %v, reference %v, want %v", c.name, got, ref, c.want)
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 5000; i++ {
		fa, fb := randomFlows(rng, rng.Intn(12)), randomFlows(rng, rng.Intn(12))
		max := rng.Intn(10) // 0 = uncapped
		a, b := NewSignature(slices.Clone(fa), max), NewSignature(slices.Clone(fb), max)
		if wa := refNewSignature(fa, max); !slices.Equal(a, wa) {
			t.Fatalf("NewSignature(%v, %d) = %v, reference %v", fa, max, a, wa)
		}
		if got, want := Similarity(a, b), refSimilarity(a, b); got != want {
			t.Fatalf("Similarity(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}

// TestLookupMatchesReference fills databases with random patterns and hit
// counts and requires Lookup, with its length pre-filter, to return the
// entry the exhaustive scan returns, at thresholds on both sides of the
// paper's 0.8 and at the degenerate 0 and 1.
func TestLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		db := NewSolutionDB()
		for i := 0; i < 1+rng.Intn(12); i++ {
			// A threshold above 1 never matches, so every pattern is stored
			// as its own entry, near-duplicates included.
			if s := db.Save(3, NewSignature(randomFlows(rng, 1+rng.Intn(10)), 0), nil, 2, 0); s != nil {
				s.Hits = int64(rng.Intn(3))
			}
		}
		for q := 0; q < 20; q++ {
			sig := NewSignature(randomFlows(rng, rng.Intn(10)), 0)
			for _, minSim := range []float64{0, 0.5, 0.8, 1} {
				if got, want := db.Lookup(3, sig, minSim), refLookup(db, 3, sig, minSim); got != want {
					t.Fatalf("Lookup(%v, %v) = %+v, reference %+v", sig, minSim, got, want)
				}
			}
		}
	}
}

// TestLookupPrefersSimilarityThenHits pins the choice among several
// matching entries: the most similar wins, more hits break a tie, and the
// earliest saved wins a full tie.
func TestLookupPrefersSimilarityThenHits(t *testing.T) {
	sigOf := func(srcs ...int) Signature {
		var flows []network.FlowKey
		for _, s := range srcs {
			flows = append(flows, network.FlowKey{Src: topology.NodeID(s), Dst: 9})
		}
		return NewSignature(flows, 0)
	}
	db := NewSolutionDB()
	save := func(hits int64, srcs ...int) *Solution {
		s := db.Save(9, sigOf(srcs...), nil, 2, 0)
		s.Hits = hits
		return s
	}
	// Against the query {1, 2, 3, 4} below: 2·4/10 = 0.8, then three
	// entries at 2·4/9 that differ in hits and age, one below the threshold
	// (2·2/6) and one ruled out by its length alone.
	loose := save(9, 1, 2, 3, 4, 5, 6)
	first := save(1, 1, 2, 3, 4, 7)
	busier := save(2, 1, 2, 3, 4, 8)
	twin := save(2, 1, 2, 3, 4, 10)
	save(5, 1, 2)
	save(7, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27)
	query := sigOf(1, 2, 3, 4)
	if got := db.Lookup(9, query, 0.8); got != busier {
		t.Fatalf("Lookup chose %+v, want the 8/9 entry with 2 hits saved first %+v", got, busier)
	}
	busier.Hits = 0
	if got := db.Lookup(9, query, 0.8); got != twin {
		t.Fatalf("Lookup chose %+v, want the remaining 2-hit entry %+v", got, twin)
	}
	twin.Hits, first.Hits = 0, 0
	if got := db.Lookup(9, query, 0.8); got != first {
		t.Fatalf("Lookup chose %+v, want the earliest of the tied entries %+v", got, first)
	}
	if got := db.Lookup(9, query, 0.9); got != nil {
		t.Fatalf("Lookup at 0.9 = %+v, want none", got)
	}
	if got := db.Lookup(9, sigOf(1, 2, 3, 4, 5, 6), 0.8); got != loose {
		t.Fatalf("Lookup of the loose entry's own pattern = %+v, want %+v", got, loose)
	}
}

// TestSaveCopiesSignature: a controller hands Save a signature that lives
// in its reused evidence buffer.
func TestSaveCopiesSignature(t *testing.T) {
	db := NewSolutionDB()
	buf := []network.FlowKey{{Src: 1, Dst: 9}, {Src: 2, Dst: 9}}
	s := db.Save(9, NewSignature(buf, 0), nil, 0.8, 0)
	buf[0], buf[1] = network.FlowKey{Src: 5, Dst: 5}, network.FlowKey{Src: 6, Dst: 5}
	want := Signature{{Src: 1, Dst: 9}, {Src: 2, Dst: 9}}
	if !slices.Equal(s.Sig, want) {
		t.Fatalf("saved signature followed the caller's buffer: %v", s.Sig)
	}
	// The in-place refresh copies as well.
	buf[0], buf[1] = want[0], want[1]
	if db.Save(9, NewSignature(buf, 0), nil, 0.8, 0) != s || s.Updates != 1 {
		t.Fatal("matching save did not refresh the entry")
	}
	buf[0] = network.FlowKey{Src: 7, Dst: 7}
	if !slices.Equal(s.Sig, want) {
		t.Fatalf("refreshed signature followed the caller's buffer: %v", s.Sig)
	}
}

// TestSaveStoresValues: Save copies a metapath's path states into storage
// the database owns, so the saved solution stays what it was while the
// metapath updates latencies and opens and closes paths; the copies alias
// the immutable waypoints instead of duplicating them; and refreshing an
// existing solution reuses its storage, allocating nothing.
func TestSaveStoresValues(t *testing.T) {
	cfg := PRDRBConfig()
	db := NewSolutionDB()
	mp := newMetapath(9, cfg.LatencyFloor)
	mp.spill()
	mp.paths = append(mp.paths,
		pathState{id: 1, path: topology.Path{4, 5}, latNs: 2000, extraHops: 2, observed: true},
		pathState{id: 2, path: topology.Path{6}, latNs: 3000, extraHops: 1, observed: true})
	sig := NewSignature([]network.FlowKey{{Src: 1, Dst: 9}, {Src: 2, Dst: 9}}, 0)
	s := db.Save(9, sig, mp.paths, 0.8, 100)
	want := slices.Clone(mp.paths)
	samePaths := func(a, b []pathState) bool {
		return slices.EqualFunc(a, b, func(x, y pathState) bool {
			return x.id == y.id && x.path.Equal(y.path) && x.latNs == y.latNs && x.extraHops == y.extraHops && x.observed == y.observed
		})
	}

	mp.observe(&cfg, 1, 9000)
	mp.observe(&cfg, 2, 7000)
	mp.paths = append(mp.paths[:1], mp.paths[2:]...) // path 1 closes
	mp.paths = append(mp.paths, pathState{id: 3, path: topology.Path{7, 8}, latNs: 4000})
	if !samePaths(s.paths, want) {
		t.Fatalf("the saved solution followed the metapath: %+v, saved %+v", s.paths, want)
	}
	for i := range s.paths {
		if p := s.paths[i].path; len(p) > 0 && &p[0] != &want[i].path[0] {
			t.Fatalf("path %d: the solution copied the waypoints instead of aliasing them", i)
		}
	}

	allocs := testing.AllocsPerRun(50, func() {
		if db.Save(9, sig, mp.paths, 0.8, 200) != s {
			t.Fatal("matching save did not refresh the entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("refreshing a solution allocates %.1f times, want 0", allocs)
	}
	if !samePaths(s.paths, mp.paths) {
		t.Fatalf("the refreshed solution holds %+v, want the metapath's %+v", s.paths, mp.paths)
	}
	if &s.paths[0] == &mp.paths[0] {
		t.Fatal("the refreshed solution shares the metapath's path array")
	}
}
