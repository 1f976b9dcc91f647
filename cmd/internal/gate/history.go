package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
)

// The history row holds this tree's prdrbsim to the one at
// results/reference.commit: historyRuns configurations drawn from a fixed
// seed must print the same stdout and write the same JSONL trace on both.
const historyRuns, historySeed = 500, 12

var (
	smallTopos = []string{"mesh-4x4", "torus-4x4", "mesh3d-4x4x2", "ft-4-2", "clos-4", "df-2-3-1-1", "df-4-5-1-2"}
	bigTopos   = []string{"mesh-8x8", "torus-8x8", "mesh3d-4x4x4", "torus3d-4x4x4", "ft-4-3", "ft-2-6", "clos-8", "df-4-9-2-2"} // room for 64 ranks
	policies   = []string{"deterministic", "random", "cyclic", "adaptive", "drb", "pr-drb", "fr-drb", "pr-fr-drb"}
	apps       = []string{"nas-lu", "nas-mg-s", "nas-mg-a", "nas-mg-b", "nas-ft-a", "nas-ft-b", "smg2000", "lammps-chain", "lammps-comb", "pop", "sweep3d", "ai-dp-allreduce", "ai-pp-pipeline", "ai-dp-pp"}
)

// drawConfigs draws n invocations as -name=value flags, so dropping one
// drops its value too; goal is a GOAL schedule for -goal.
func drawConfigs(n int, goal string) [][]string {
	r := rand.New(rand.NewPCG(historySeed, historySeed))
	pick := func(s ...string) string { return s[r.IntN(len(s))] }
	num := func(lo, hi int, unit string) string { return fmt.Sprint(lo+r.IntN(hi-lo+1)) + unit }
	cs := make([][]string, n)
	for i := range cs {
		set := func(odds int, name, value string) { // one time in odds
			if r.IntN(odds) == 0 {
				cs[i] = append(cs[i], "-"+name+"="+value)
			}
		}
		kind := pick("pattern", "pattern", "heavytail", "heavytail", "workload", "goal")
		replay := kind == "workload" || kind == "goal"
		topo := pick(append(slices.Clip(smallTopos), bigTopos...)...)
		if replay {
			topo = pick(bigTopos...)
		}
		set(1, "topology", topo)
		set(1, "policy", pick(policies...)+pick("", "", "", ","+pick(policies...)))
		set(1, "seed", num(1, 1000, ""))
		switch kind {
		case "pattern": // -bursts=0 is continuous for -duration
			pat := pick("shuffle", "bitreversal", "transpose", "uniform")
			if strings.HasPrefix(topo, "df-") { // not a power of two
				pat = "uniform"
			}
			set(1, "pattern", pat)
			set(1, "rate", num(100, 1000, ""))
			set(1, "bursts", num(0, 4, ""))
			set(1, "duration", num(20, 200, "us"))
			set(1, "burst-len", num(5, 80, "us"))
			set(1, "burst-gap", pick("0", num(1, 60, "us"), num(1, 60, "us")))
		case "heavytail":
			set(1, "heavytail", pick("websearch", "datamining", "cache"))
			set(1, "rate", num(50, 500, ""))
			set(1, "duration", num(20, 200, "us"))
			set(1, "ht-on", num(10, 100, "us"))
			set(1, "ht-off", pick("0", num(10, 100, "us")))
			set(2, "ht-pattern", "grouplocal")
			set(2, "ht-plocal", fmt.Sprint(float64(r.IntN(10))/10))
			set(2, "ht-maxflow", "65536")
		case "workload":
			set(1, "workload", pick(apps...))
			set(1, "iters", "1")
		case "goal":
			set(1, "goal", goal)
		}
		if !replay { // a replay runs serial, and one that loses a message stalls
			set(4, "faults", fmt.Sprintf("rand%d@%dus+%dus~%dus", 1+r.IntN(3), 5+r.IntN(50), r.IntN(50), 20+r.IntN(200)))
			set(3, "shards", num(2, 4, ""))
		}
		set(6, "map", "true")
		set(6, "energy", "true")
	}
	return cs
}

// classCounts counts the configurations per class: a value of a flag that
// names one (or any flag set to 0), or a flag that switches a feature on.
func classCounts(cs [][]string) map[string]int {
	counts := map[string]int{}
	for _, c := range cs {
		for _, a := range c {
			name, value, _ := strings.Cut(a[1:], "=")
			for _, v := range strings.Split(value, ",") {
				switch {
				case v == "0" || slices.Contains([]string{"topology", "policy", "pattern", "heavytail", "ht-pattern", "workload"}, name):
					counts[name+"="+v]++
				case slices.Contains([]string{"ht-off", "goal", "faults", "shards", "map", "energy"}, name):
					counts[name]++
				}
			}
		}
	}
	return counts
}

// historyCheck builds prdrbsim at the reference commit and from this tree,
// runs every drawn configuration on both, and returns how many differ.
func historyCheck() float64 {
	commit := strings.TrimSpace(string(must(os.ReadFile("results/reference.commit"))))
	if exec.Command("git", "cat-file", "-e", commit+"^{commit}").Run() != nil {
		fail("this clone lacks %s, the commit results/reference.commit names: fetch the full history (`git fetch --unshallow`; in CI, actions/checkout with fetch-depth: 0)", commit)
	}
	ref, src := tmp("prdrbsim-reference"), tmp("reference")
	must(0, os.MkdirAll(src, 0o755))
	output("git", "archive", "-o", src+".tar", commit)
	output("tar", "-xf", src+".tar", "-C", src)
	output("go", "-C", src, "build", "-o", ref, "./cmd/prdrbsim")
	head := bin("./cmd/prdrbsim")
	output(head, "-workload=nas-lu", "-iters=2", "-save-goal="+tmp("history.goal"))
	cs := drawConfigs(historyRuns, tmp("history.goal"))
	fmt.Printf("    configurations drawn per class: %v\n", classCounts(cs))
	bad, _ := compareHistory(ref, head, cs)
	fmt.Printf("    %d of %d configurations equal to %s\n", len(cs)-bad, len(cs), commit)
	return float64(bad)
}

// compareHistory runs cs on ref and head, two pairs at a time, and
// returns how many configurations differ or fail, and the first that
// differs shrunk to flags none of which can be dropped (nil if none does).
func compareHistory(ref, head string, cs [][]string) (bad int, minimal []string) {
	differs, failed := make([]bool, len(cs)), make([]bool, len(cs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		trace := tmp(fmt.Sprintf("history-%d.jsonl", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cs); i += 2 {
				a, b := runSim(ref, trace, cs[i]), runSim(head, trace, cs[i])
				differs[i], failed[i] = a != b, strings.HasSuffix(a, failedRun) || strings.HasSuffix(b, failedRun)
			}
		}()
	}
	wg.Wait()
	for i := range cs {
		if failed[i] {
			fmt.Printf("    fails: prdrbsim %s\n", strings.Join(cs[i], " "))
		}
		if failed[i] || differs[i] {
			bad++
		}
	}
	if i := slices.Index(differs, true); i >= 0 {
		minimal = shrink(ref, head, tmp("history-0.jsonl"), cs[i])
		fmt.Printf("    configuration %d differs; shrunk, it runs as\n", i)
		for _, b := range []string{ref, head} {
			fmt.Printf("      %s %s -v -trace t.jsonl -trace-sample 16\n", b, strings.Join(minimal, " "))
		}
	}
	return bad, minimal
}

const failedRun = "\nexit: true"

// runSim runs bin on args with -v and a 1-in-16 trace, and returns its
// stdout, trace and whether it failed, as one text.
func runSim(bin, trace string, args []string) string {
	os.Remove(trace)
	out, err := exec.Command(bin, append(slices.Clip(args), "-v", "-trace", trace, "-trace-sample", "16")...).Output()
	tr, _ := os.ReadFile(trace)
	return fmt.Sprintf("%s\ntrace:\n%s\nexit: %v", out, tr, err != nil)
}

// shrink drops flags one at a time while the runs still differ, until no
// single flag can be dropped.
func shrink(ref, head, trace string, args []string) []string {
	for dropped := true; dropped; {
		dropped = false
		for i := 0; i < len(args); i++ {
			if try := slices.Delete(slices.Clone(args), i, i+1); runSim(ref, trace, try) != runSim(head, trace, try) {
				args, dropped = try, true
				i--
			}
		}
	}
	return args
}
