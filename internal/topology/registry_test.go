package topology

import (
	"strings"
	"testing"
)

func TestByNameSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		name    string
		nodes   int
		routers int
	}{
		{"mesh-4x4", "mesh4x4", 16, 16},
		{"torus-5x3", "torus5x3", 15, 15},
		{"mesh3d-2x3x4", "mesh2x3x4", 24, 24},
		{"torus3d-4x4x4", "torus4x4x4", 64, 64},
		{"ft-4-3", "ft-4ary3tree", 64, 48},
		{"clos-16", "ft-8ary3tree", 512, 192},
		{"clos-32", "ft-16ary3tree", 4096, 768},
		{"df-4-5-1-2", "df-4-5-1-2", 40, 20},
		{"df-16-32-8-8", "df-16-32-8-8", 4096, 512},
	}
	for _, c := range cases {
		topo, err := ByName(c.spec)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.spec, err)
		}
		if topo.Name() != c.name {
			t.Errorf("ByName(%q).Name() = %q, want %q", c.spec, topo.Name(), c.name)
		}
		if topo.NumTerminals() != c.nodes {
			t.Errorf("ByName(%q) terminals = %d, want %d", c.spec, topo.NumTerminals(), c.nodes)
		}
		if topo.NumRouters() != c.routers {
			t.Errorf("ByName(%q) routers = %d, want %d", c.spec, topo.NumRouters(), c.routers)
		}
	}
}

// panickingSpecs made the constructors panic through ByName before it
// validated parameters itself.
var panickingSpecs = []string{
	"mesh-0x3", "torus-2x2", "mesh--1x4", "mesh3d-0x1x1", "ft-0-0", "ft-1-3", "df-0-0-0-0",
}

func TestByNameErrors(t *testing.T) {
	for _, spec := range append([]string{
		"", "ring-8", "mesh-4", "mesh-4x4x4", "torus-ax4", "ft-4", "ft-4-3-2",
		"clos-15", "clos-2", "df-4-5-1", "df-x-5-1-2",
		"ft-4-1", "df-4-9-1-2", "df-3-3-1-1", // constructor preconditions
		// Size cap: per-parameter, then routers, terminals, global channels.
		"mesh-4294967296x4294967296", "mesh-1048577x1", "torus3d-128x128x128",
		"ft-2-20", "ft-2-4294967296", "clos-2048", "df-1024-1025-1-1",
		"df-2-2-1-1048576", "df-2-524288-262144-1",
	}, panickingSpecs...) {
		if _, err := ByName(spec); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", spec)
		}
	}
}

// FuzzTopologyByName: no spec panics ByName, and what it accepts is wired
// consistently. The checks are bounded to keep each input cheap: Validate
// walks every port.
func FuzzTopologyByName(f *testing.F) {
	for _, spec := range append([]string{
		"mesh-8x8", "torus-4x4", "mesh3d-2x3x4", "torus3d-4x4x4", "ft-4-3", "clos-8", "df-4-5-1-2",
	}, panickingSpecs...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ByName(spec)
		if err != nil || topo.NumRouters() > 4096 || topo.NumTerminals() > 4096 {
			return
		}
		if err := Validate(topo); err != nil {
			t.Fatalf("ByName(%q): %v", spec, err)
		}
		if n := topo.NumRouters(); n <= 128 {
			for r := RouterID(0); int(r) < n; r++ {
				topo.Radix(r)
				for o := RouterID(0); int(o) < n; o++ {
					topo.Distance(r, o)
				}
			}
		}
	})
}

func TestByNameErrorListsForms(t *testing.T) {
	_, err := ByName("hypercube-8")
	if err == nil {
		t.Fatal("want error")
	}
	for _, form := range SpecForms() {
		if !strings.Contains(err.Error(), form) {
			t.Errorf("error %q does not mention form %q", err, form)
		}
	}
}

func TestPathCacheMatchesDirect(t *testing.T) {
	for _, spec := range []string{"mesh-6x6", "ft-4-3", "df-4-5-1-2"} {
		topo, err := ByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewPathCache(topo, 6, 32)
		n := topo.NumTerminals()
		for s := 0; s < n; s += 3 {
			for dst := 1; dst < n; dst += 5 {
				got := pc.Paths(NodeID(s), NodeID(dst))
				want := topo.AlternativePaths(NodeID(s), NodeID(dst), 6)
				if len(got) != len(want) {
					t.Fatalf("%s %d->%d: cache %d paths, direct %d", spec, s, dst, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%s %d->%d path %d: cache %v, direct %v", spec, s, dst, i, got[i], want[i])
					}
				}
				// Second fetch must be the identical cached slice.
				again := pc.Paths(NodeID(s), NodeID(dst))
				if len(again) > 0 && len(got) > 0 && &again[0] != &got[0] {
					t.Fatalf("%s %d->%d: second fetch recomputed", spec, s, dst)
				}
			}
		}
	}
}

func TestPathCacheEvicts(t *testing.T) {
	topo := NewMesh(6, 6)
	pc := NewPathCache(topo, 4, 8)
	for dst := 1; dst < 20; dst++ {
		pc.Paths(0, NodeID(dst))
		if len(pc.entries) > 8 {
			t.Fatalf("cache grew to %d entries past capacity 8", len(pc.entries))
		}
	}
	if len(pc.entries) != 8 {
		t.Fatalf("cache has %d entries, want 8", len(pc.entries))
	}
	// LRU: the most recently used pair survives a fill.
	keep := pc.Paths(0, 19)
	for dst := 20; dst < 27; dst++ {
		pc.Paths(0, NodeID(dst))
	}
	if got := pc.Paths(0, 19); len(keep) > 0 && &got[0] != &keep[0] {
		t.Fatalf("most-recent entry was evicted")
	}
}

// TestTreeDistanceMatchesBFS pins the closed-form tree distance to BFS
// ground truth on every switch pair of shapes from the smallest tree to
// clos-32, with n up to 5.
func TestTreeDistanceMatchesBFS(t *testing.T) {
	for _, kn := range [][2]int{{2, 2}, {2, 5}, {3, 3}, {4, 3}, {4, 4}, {5, 4}, {8, 3}, {16, 3}} {
		ft := NewKAryNTree(kn[0], kn[1])
		for src := RouterID(0); int(src) < ft.NumRouters(); src++ {
			want := bfsFrom(ft, src)
			for o := RouterID(0); int(o) < ft.NumRouters(); o++ {
				if got := ft.Distance(src, o); got != want[o] {
					t.Fatalf("%s: Distance(%s, %s) = %d, BFS %d", ft.Name(), ft.RouterLabel(src), ft.RouterLabel(o), got, want[o])
				}
			}
		}
	}
}

// TestTreeDistanceZeroAlloc: tree distance is digit arithmetic, with no
// per-source state to build on first use.
func TestTreeDistanceZeroAlloc(t *testing.T) {
	ft := NewKAryNTree(16, 3)
	last := RouterID(ft.NumRouters() - 1)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += ft.Distance(0, last) + ft.Distance(last, 1)
	})
	if allocs != 0 {
		t.Errorf("%s: %v allocations per Distance pair, want 0", ft.Name(), allocs)
	}
	_ = sink
}
