package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestHistoryDraws pins what the generator covers: every class the history
// row stands in for is drawn, -shards and -faults only on open-loop
// traffic, and the same seed draws the same configurations.
func TestHistoryDraws(t *testing.T) {
	cs := drawConfigs(historyRuns, "g.goal")
	for _, c := range cs {
		replay := slices.ContainsFunc(c, func(a string) bool { return strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "-goal=") })
		open := slices.ContainsFunc(c, func(a string) bool { return strings.HasPrefix(a, "-shards=") || strings.HasPrefix(a, "-faults=") })
		if replay && open {
			t.Errorf("%v: -shards or -faults on a replay", c)
		}
	}
	counts := classCounts(cs)
	want := []string{"topology=df-4-9-2-2", "bursts=0", "burst-gap=0", "ht-off", "ht-off=0",
		"ht-pattern=grouplocal", "goal", "faults", "shards", "map", "energy"}
	for _, p := range []string{"shuffle", "bitreversal", "transpose", "uniform"} {
		want = append(want, "pattern="+p)
	}
	for _, cdf := range []string{"websearch", "datamining", "cache"} {
		want = append(want, "heavytail="+cdf)
	}
	for _, p := range policies {
		want = append(want, "policy="+p)
	}
	for _, a := range apps {
		want = append(want, "workload="+a)
	}
	for _, k := range want {
		if counts[k] == 0 {
			t.Errorf("no configuration drawn in class %q", k)
		}
	}
	for _, family := range []string{"mesh-", "torus-", "mesh3d-", "torus3d-", "ft-", "clos-", "df-"} {
		n := 0
		for _, topo := range append(slices.Clip(smallTopos), bigTopos...) {
			if strings.HasPrefix(topo, family) {
				n += counts["topology="+topo]
			}
		}
		if n == 0 {
			t.Errorf("no configuration drawn on a %s* topology", family)
		}
	}
	if again := drawConfigs(historyRuns, "g.goal"); !slices.EqualFunc(cs, again, slices.Equal) {
		t.Fatal("the same seed drew different configurations")
	}
}

// copyTree copies the module at root to dir, leaving out hidden
// directories and results/.
func copyTree(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		switch {
		case d.IsDir() && rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "results"):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHistoryCatchesPlantedChange plants a one-line change in a copy of
// the tree and runs the history comparison against the tree as it is: the
// change must show as a difference, shrunk to flags none of which can be
// dropped without the difference vanishing.
func TestHistoryCatchesPlantedChange(t *testing.T) {
	if raceBuild {
		t.Skip("the test group runs it without -race")
	}
	t.Cleanup(func() { os.RemoveAll(scratch); scratch = "" })
	root := must(filepath.Abs("../../.."))
	ref := tmp("prdrbsim-tree")
	output("go", "-C", root, "build", "-o", ref, "./cmd/prdrbsim")
	goal := tmp("planted.goal")
	output(ref, "-workload=nas-lu", "-iters=2", "-save-goal="+goal)
	for _, plant := range []struct{ name, file, old, new string }{
		{"arbitration-tie-break", "internal/network/port.go", "o.rr = uint8(vc + 1)", "o.rr = uint8(vc)"},
		{"reserved-sequence", "internal/network/port.go",
			"e.ScheduleReserved(o.serEnd, o.freeSeq, o, portEvFree, uint64(o.serEnd))",
			"e.ScheduleEvent(o.serEnd, o, portEvFree, uint64(o.serEnd))"},
	} {
		t.Run(plant.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, root, dir)
			path := filepath.Join(dir, plant.file)
			src := must(os.ReadFile(path))
			if strings.Count(string(src), plant.old) != 1 {
				t.Fatalf("%s no longer holds %q once", plant.file, plant.old)
			}
			must(0, os.WriteFile(path, []byte(strings.Replace(string(src), plant.old, plant.new, 1)), 0o644))
			head := tmp("prdrbsim-" + plant.name)
			output("go", "-C", dir, "build", "-o", head, "./cmd/prdrbsim")
			bad, minimal := compareHistory(ref, head, drawConfigs(40, goal))
			if bad == 0 || minimal == nil {
				t.Fatalf("the planted change went unseen: %d of 40 configurations differ", bad)
			}
			trace := tmp("planted.jsonl")
			for i := range minimal {
				try := slices.Delete(slices.Clone(minimal), i, i+1)
				if runSim(ref, trace, try) != runSim(head, trace, try) {
					t.Errorf("%v still differs without %s", minimal, minimal[i])
				}
			}
			t.Logf("%d of 40 differ; shrunk to %v", bad, minimal)
		})
	}
}

// TestHistoryNeedsReferenceCommit: a clone without the reference commit
// fails the row, naming the file and the fetch that brings the commit in.
func TestHistoryNeedsReferenceCommit(t *testing.T) {
	wd := must(os.Getwd())
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "results/reference.commit"), "0000000\n")
	must(0, os.Chdir(dir))
	defer os.Chdir(wd)
	err := runGate(gate{name: "history", check: historyCheck, unit: "configs"})
	if err == nil || !strings.Contains(err.Error(), "results/reference.commit") || !strings.Contains(err.Error(), "git fetch --unshallow") {
		t.Fatalf("err = %v, want a failure naming results/reference.commit and the fetch to run", err)
	}
}

// TestStaleGuards: an alternative matching no test of its row's packages
// is counted; rows other than the four guard rows are not read.
func TestStaleGuards(t *testing.T) {
	if raceBuild {
		t.Skip("the test group runs it without -race")
	}
	gates := []gate{
		{name: "hop-guards", cmd: guards("TableSanity|NoSuchTest|StaleGuards", ".")},
		{name: "zero-alloc", cmd: []string{"go", "test", "-run", "TestDocFlags$", "-count=1", "-v", "."}},
		{name: "race", cmd: []string{"go", "test", "-race", "-run", "NoSuchTest", "./..."}},
	}
	if n := staleGuards(gates); n != 1 {
		t.Errorf("%v stale alternatives, want 1 (NoSuchTest in hop-guards)", n)
	}
}
