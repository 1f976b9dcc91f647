package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchOut is what a benchmark run prints: human lines, then one JSON line.
func benchOut(alloc string) string {
	return "# GOMAXPROCS=2\ne2e ft64-uniform-serial alloc_bytes_per_pkt 8.1 B lower\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{` + alloc + `}}` + "\n"
}

func TestAllocBound(t *testing.T) {
	for _, c := range []struct {
		name, out string
		fail      string // a substring of the error; "" for a pass
	}{
		{"within", benchOut(`"alloc_bytes_per_pkt":{"value":8.2,"unit":"B"}`), ""},
		{"over", benchOut(`"alloc_bytes_per_pkt":{"value":9.6,"unit":"B"}`), "over the bound of 9.5"},
		{"no-json-line", "# GOMAXPROCS=2\ne2e ft64-uniform-serial alloc_bytes_per_pkt 8.1 B lower\n", "without its JSON line"},
		{"no-metric", benchOut(`"wall_s_per_sim_ms":{"value":0.1}`), "no metrics.alloc_bytes_per_pkt"},
		{"no-value", benchOut(`"alloc_bytes_per_pkt":{"unit":"B"}`), "no metrics.alloc_bytes_per_pkt"},
		{"empty", "", "without its JSON line"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := c.out
			err := runGate(gate{name: "alloc-canned", bound: 9.5, unit: "B/pkt",
				check: func() float64 { return must(allocPerPkt(out)) }})
			switch {
			case c.fail == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail) || !strings.HasPrefix(err.Error(), "alloc-canned: ")):
				t.Fatalf("err = %v, want a failure naming alloc-canned and containing %q", err, c.fail)
			}
		})
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestClosureScan(t *testing.T) {
	call := "package x\n\nfunc f(e *sim.Engine) { e.Schedule(0, func() {}) }\n"
	for _, c := range []struct {
		path string
		want float64
	}{
		{"internal/core/actor.go", 1},
		{"cmd/tool/main.go", 1},
		{"internal/core/actor_test.go", 0},
		{"internal/sim/engine.go", 0},
		{"internal/network/shard.go", 0},
		{"benchmark/probe.go", 0},
		{"internal/network/port.go", 1},
	} {
		root := t.TempDir()
		writeFile(t, filepath.Join(root, c.path), call)
		writeFile(t, filepath.Join(root, "internal/core/clean.go"), "package x\n\nfunc g(e *sim.Engine) { e.ScheduleEvent(0, a, 0, 0) }\n")
		if n := closureScan(root); n != c.want {
			t.Errorf("%s: %v calls, want %v", c.path, n, c.want)
		}
	}
}

func TestChangesLineBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "CHANGES.md")
	for _, n := range []int{1024, 1025} {
		writeFile(t, path, "short\n"+strings.Repeat("x", n)+"\nshort\n")
		err := runGate(gate{name: "changes-lines", bound: 1024, unit: "B",
			check: func() float64 { return longestLine(path) }})
		if (err != nil) != (n > 1024) {
			t.Errorf("a %d-byte line: err = %v", n, err)
		}
	}
}

func TestFuzzDiscovery(t *testing.T) {
	if raceBuild {
		t.Skip("the test group runs it without -race")
	}
	found := map[string]string{}
	for _, f := range discoverFuzz("../../..") {
		found[f.name] = f.pkg
	}
	for name, pkg := range map[string]string{
		"FuzzReadTrace":        "prdrb/internal/trace",
		"FuzzReadGOAL":         "prdrb/internal/trace",
		"FuzzDecodeHeader":     "prdrb/internal/network",
		"FuzzReadCheckpoint":   "prdrb/internal/ckpt",
		"FuzzTopologyByName":   "prdrb/internal/topology",
		"FuzzParsePlan":        "prdrb/internal/faults",
		"FuzzCampaignManifest": "prdrb/cmd/experiments",
		"FuzzBurstSpec":        "prdrb/internal/runner",
		"FuzzImportKnowledge":  "prdrb/internal/runner",
		"FuzzHeavyTailSpec":    "prdrb/internal/runner",
	} {
		if found[name] != pkg {
			t.Errorf("%s found in %q, want %q", name, found[name], pkg)
		}
	}
}

func TestTableSanity(t *testing.T) {
	gates := table([]string{"-run", "X"}, time.Second)
	names := map[string]bool{}
	perGroup := map[string]int{}
	for i, g := range gates {
		if i > 0 && slices.Index(groups, g.group) < slices.Index(groups, gates[i-1].group) {
			t.Errorf("gate %q is out of group order", g.name)
		}
		if names[g.name] {
			t.Errorf("gate %q appears twice", g.name)
		}
		names[g.name] = true
		perGroup[g.group]++
		if !slices.Contains(groups, g.group) {
			t.Errorf("gate %q is in unknown group %q", g.name, g.group)
		}
		if (g.cmd == nil) == (g.check == nil) {
			t.Errorf("gate %q needs exactly one of a command and a check", g.name)
		}
		if math.IsNaN(g.bound) || math.IsInf(g.bound, 0) || g.bound < 0 {
			t.Errorf("gate %q has bound %v, want finite and >= 0", g.name, g.bound)
		}
		if g.bound > 0 && g.unit == "" {
			t.Errorf("gate %q has a bound but no unit", g.name)
		}
	}
	for _, grp := range groups {
		if perGroup[grp] == 0 {
			t.Errorf("group %q is empty", grp)
		}
	}
	var race string
	guards := 0
	for _, g := range gates {
		if g.name == "race" {
			race = strings.Join(g.cmd, " ")
		}
		if slices.Contains(g.cmd, "1,2,4") && g.name != "barrier-stress" {
			guards += len(strings.Split(g.cmd[slices.Index(g.cmd, "-run")+1], "|"))
		}
	}
	if guards != 30 {
		t.Errorf("%d guard names run at -cpu 1,2,4, want 30", guards)
	}
	if race != "go test -race -run X ./..." {
		t.Errorf("race gate runs %q, want the extra arguments before ./...", race)
	}
}

func TestDocFlags(t *testing.T) {
	flags := map[string][]string{"prdrbsim": {"policy", "bursts"}, "experiments": {"run"}, "prdrbtrace perf": {"report", "det"}}
	flagsOf := func(cmd string) []string {
		if _, ok := flags[cmd]; !ok {
			t.Fatalf("looked up %q", cmd)
		}
		return flags[cmd]
	}
	doc := "Run `prdrbsim -policy pr-drb -bursts=0 -h` or `experiments -run x | grep -v -q`.\n" +
		"```\n" +
		"go run ./cmd/prdrbsim -policy drb \\\n" +
		"    -bogus 3   # -comment is no flag\n" +
		"go run ./cmd/prdrbtrace perf -report p.json [-det] -bursts > out\n" +
		"```\n" +
		"`cmd/experiments -procs 2` and `-seeds` alone; `prdrbsim\n-nodes 4 -bogus` spans two lines.\n"
	want := []string{
		"doc.md:3: prdrbsim has no flag -bogus",
		"doc.md:5: prdrbtrace perf has no flag -bursts",
		"doc.md:7: experiments has no flag -procs",
		"doc.md:8: prdrbsim has no flag -nodes",
		"doc.md:8: prdrbsim has no flag -bogus",
	}
	if got := docFlags("doc.md", doc, flagsOf); !slices.Equal(got, want) {
		t.Errorf("docFlags:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
