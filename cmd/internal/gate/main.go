// Command gate runs this repository's pre-merge checks from one table, by
// group, from the repository root:
//
//	go run ./cmd/internal/gate [-list] [-fuzztime 30s] [group ...] [-- go-test-args]
//
// No group runs all but fuzz. It stops at the first failure. Arguments
// after the groups reach the race gate's `go test -race ./...`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"
)

// gate is one row of the table: a command run from the repository root,
// or a check written in Go that measures a value no larger than bound.
type gate struct {
	name, group string
	cmd         []string
	check       func() float64 // raises a failure with fail, expect or must
	bound       float64
	unit        string // of the measured value and the bound; "" when a check only passes or fails
	why, hint   string // hint is printed under a failure
}

var groups = []string{"static", "test", "race", "alloc", "results", "smoke", "fuzz"}

// guards runs tests under -race at GOMAXPROCS 1, 2 and 4, which the plain
// -race run does not: each has a hand-rolled barrier or shard handoff under
// it or pins a count an interleaving could move.
func guards(names, pkgs string) []string {
	return append([]string{"go", "test", "-race", "-cpu", "1,2,4", "-count=1", "-run", names}, strings.Fields(pkgs)...)
}

// table returns every gate; raceArgs reach the race gate's go test.
func table(raceArgs []string, fuzztime time.Duration) []gate {
	return []gate{
		{name: "gofmt", group: "static", check: gofmt, unit: "files"},
		{name: "vet", group: "static", cmd: []string{"go", "vet", "./..."}},
		{name: "changes-lines", group: "static", check: func() float64 { return longestLine("CHANGES.md") }, bound: 1024, unit: "B", why: "a CHANGES.md entry is one line of at most 1 KB"},
		budget("changes-bytes", 29009, "B", "CHANGES.md (PRs 1-49 are one table row each; git keeps their full entries)", func() float64 { return fileSize("CHANGES.md") }),
		budget("go-lines", 26601, "lines", "non-test Go outside benchmark/ (repo.nontest_go_loc; 26,601: memoised point-to-point blocks cost 161 lines, trace.Block and its capture 137 in internal/trace and the blocks' closing lines 24 in internal/workloads; the slot-walk count 17, 7 in internal/sim and 10 in internal/perf)", func() float64 { return lineCount(goFiles(".")...) }),
		budget("design-bytes", 42573, "B", "DESIGN.md", func() float64 { return fileSize("DESIGN.md") }),
		budget("readme-bytes", 10796, "B", "README.md", func() float64 { return fileSize("README.md") }),
		budget("experiments-bytes", 19859, "B", "EXPERIMENTS.md", func() float64 { return fileSize("EXPERIMENTS.md") }),
		budget("roadmap-lines", 446, "lines", "ROADMAP.md", func() float64 { return lineCount("ROADMAP.md") }),
		{name: "docs-flags", group: "static", check: docsFlags, unit: "flags", why: "every -flag README.md and EXPERIMENTS.md show on a prdrbsim, experiments or prdrbtrace <subcommand> command line is one of that command's flags"},
		{name: "guard-names", group: "static", check: func() float64 { return staleGuards(table(nil, 0)) }, unit: "names", why: "every alternative of the -run pattern of barrier-stress, hop-guards, window-guards and zero-alloc matches a test go test -list finds in that row's packages, so a retired or renamed test cannot leave a guard that runs nothing"},
		{name: "dead-api", group: "static", check: deadAPICheck, unit: "names", why: "every exported package-level name and method declared outside _test.go is used by non-test code (benchmark/, examples/ and cmd/ count) outside its own declaration; a method whose type satisfies an interface type that code names or meets in a signature, or fmt.Stringer, counts as used; every struct field declared outside _test.go and benchmark/ is both written and read by that code (deadFields in cmd/internal/gate/deadapi.go has the rule); keepAPI (printed below) may excuse 5 names or fields, each with its reason",
			hint: "delete what the row names; a helper only its own package's tests use moves into a _test.go file there, a field only tests set or read goes with the code that serves it, and a name that must stay goes on keepAPI in cmd/internal/gate/deadapi.go with its reason"},
		{name: "closure-scan", group: "static", check: func() float64 { return closureScan(".") }, unit: "calls", why: "model components are typed actors; closure scheduling stays in internal/sim, the fabric's ScheduleControl and the frozen benchmark"},
		{name: "build", group: "test", cmd: []string{"go", "build", "./..."}},
		{name: "test", group: "test", cmd: []string{"go", "test", "./..."}, why: "the suite without -race, where internal/topology's exact allocation pins run"},
		{name: "race", group: "race", cmd: append(append([]string{"go", "test", "-race"}, raceArgs...), "./...")},
		{name: "barrier-stress", group: "race", cmd: []string{"go", "test", "-race", "-count=10", "-cpu", "1,2,4", "-timeout", "5m", "-run", "ShardGroup|GroupProbe", "./internal/sim"}, why: "the shard group's hand-rolled barrier at fewer workers than shards, over enough interleavings to trust it"},
		{name: "hop-guards", group: "race", cmd: guards("Reserved|LazyFree|SeqConservation|RouteMemo|EventsPerHop", "./internal/sim ./internal/network ./internal/routing ."), why: "reserved sequence numbers, lazy link-free ports, sequence conservation, the route memo, events per packet"},
		{name: "window-guards", group: "race", cmd: guards("ShardGroup|WindowMode|ShardedDeterminism|ContendingFlows|AlternativePaths|ShardedStatus|SampleEvery|BurstTrain|HostileTrafficSpecs|SaveStoresValues|BuildMatchesAppend|BuildOneExactArray|ProgramsGolden|TraceBytesPerEvent|RecordLen|GenerateAllocs|ReplayAllocs|WatchdogEvent|FlowEvidenceOnlyPredictive|VCQueueMatchesSlice|VCQueueBytes|PortInvariants|ContendingStorage|LayoutSizes|BuildBytesLadder",
			"./internal/sim ./internal/network ./internal/topology ./internal/runner ./internal/trace ./internal/traffic ./internal/workloads ./internal/core ."), why: "window modes, sharded determinism, the CFD tally, path enumerations, the sampler, burst-train openers, hostile specs, trace pins, port layout"},
		{name: "zero-alloc", group: "alloc", cmd: []string{"go", "test", "-run", "TestHotPathZeroAlloc(PRDRB)?$", "-count=1", "-v", "."}, why: "the adaptive hot path, PR-DRB's steady state and the CFD notification path allocate nothing; -v prints the pinned cold-open bill"},
		allocGate("df4096-heavytail-serial", 260, "~244 B with the coarse wheel tier, no per-router NextHop memo, the path set in the metapath's cold record and each port holding its VC queues"),
		allocGate("df4096-heavytail-shards2", 275, "~257 B, the same cell on 2 shards, with the same four changes"),
		allocGate("ft64-uniform-serial", 9.5, "~8.2 B with 128-byte packet records"),
		allocGate("ft64-apps-replay", 20.5, "~19.1 B since rank programs call each memoised collective's and each repeated point-to-point block's records in the trace's call store instead of copying them every repetition"),
		allocGate("ft64-bursts-drbfamily", 7, "~6.2 B with closed-form fat-tree distance and 152-byte ports"),
		allocGate("grid64-policy-sweep", 147, "~136 B with compact DRB-family records"),
		{name: "smoke-digests", group: "alloc", check: smokeDigests, unit: "files", why: "benchmark -smoke's sim_digest lines equal results/bench.smoke.digests.txt: simulated output unchanged",
			hint: "run `go test -v -run SeqConservation .` first: it names the cell and shard count that moved and prints every Results field; a change that means to alter simulated behaviour regenerates the file with `go run ./benchmark -smoke | grep '^sim_digest' > results/bench.smoke.digests.txt`"},
		{name: "results", group: "results", check: regenerateResults, unit: "files", why: "every file the experiments harness writes is committed under results/ and regenerates byte for byte",
			hint: "a change that means to move a report regenerates results/ with `go run ./cmd/experiments -procs 2`"},
		{name: "history", group: "results", check: historyCheck, unit: "configs",
			why:  "prdrbsim -v stdout and its 1-in-16 JSONL trace equal those at results/reference.commit on 500 drawn configurations (topology families, policies, pattern, burst, heavy-tail, trace and GOAL traffic, faults, shards, -map, -energy); left out, as their output changed on purpose: -seeds > 1 (the Student-t CI95 column), -congestion-out (the sampler's window cadence), -save-knowledge (the sorted export), and -perf (elided link-free events)",
			hint: "only a change that means to alter simulated output moves results/reference.commit, to its own commit, and says so in CHANGES.md"},
		{name: "smoke-telemetry", group: "smoke", check: telemetrySmoke, why: "a traced run's trace and manifest validate"},
		{name: "smoke-parallel", group: "smoke", check: parallelSmoke, why: "on a lossless fabric -shards 4 delivers the packets -shards 1 delivers (latency may drift a hair)"},
		{name: "smoke-datacenter", group: "smoke", check: datacenterSmoke, why: "the 4096-node dragonfly runs lossless in CI memory"},
		{name: "smoke-collectives", group: "smoke", check: collectivesSmoke, why: "GOAL replay always runs serial, so it prints one summary at any -shards"},
		{name: "smoke-observability", group: "smoke", check: observabilitySmoke, why: "a sharded run's /metrics and /status scrape while it lingers and publish per interval, not per barrier; its trace report renders"},
		{name: "smoke-perf", group: "smoke", check: perfSmoke, why: "-perf changes no summary, and its deterministic section, window-mode counters included, repeats across identical seeds"},
		{name: "smoke-congestion", group: "smoke", check: congestionSmoke, why: "with the plane on, the congestion artifact repeats (ft-4-3 and the 4096-node dragonfly at -shards 2) and renders (the zero-alloc gate covers it off)"},
		{name: "fuzz", group: "fuzz", check: func() float64 { fuzzAll(fuzztime); return 0 }, why: "every Fuzz target go test -list finds replays its corpus, then fuzzes for -fuzztime"},
	}
}

func main() {
	list := flag.Bool("list", false, "print the table and exit")
	fuzztime := flag.Duration("fuzztime", 30*time.Second, "fresh-input time per fuzz target")
	flag.Parse()
	args, want := flag.Args(), []string(nil)
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		want, args = append(want, args[0]), args[1:]
	}
	if len(args) > 0 && args[0] == "--" {
		args = args[1:]
	}
	gates := table(args, *fuzztime)
	if *list {
		for _, g := range gates {
			fmt.Printf("%-8s %-30s %s\n%39s%s\n", g.group, g.name, describe(g), "", g.why)
		}
		fmt.Printf("dead-api keep-list (names and fields): %d of at most 5\n", len(keepAPI))
		for _, k := range keepAPI {
			fmt.Printf("%39s%s: %s\n", "", k.name, k.why)
		}
		return
	}
	if len(want) == 0 {
		want = groups[:len(groups)-1]
	}
	for _, w := range want {
		if !slices.Contains(groups, w) {
			fmt.Fprintf(os.Stderr, "gate: unknown group %q (groups: %s)\n", w, strings.Join(groups, " "))
			os.Exit(2)
		}
	}
	os.Exit(runAll(gates, want))
}

// runAll runs the wanted groups' gates and returns the exit code.
func runAll(gates []gate, want []string) int {
	defer func() { os.RemoveAll(scratch) }()
	start := time.Now()
	for _, g := range gates {
		if !slices.Contains(want, g.group) {
			continue
		}
		if err := runGate(g); err != nil {
			fmt.Fprintf(os.Stderr, "gate: FAIL %v\n", err)
			if g.hint != "" {
				fmt.Fprintf(os.Stderr, "gate: %s\n", g.hint)
			}
			return 1
		}
	}
	fmt.Printf("gate: %s OK (%.0fs)\n", strings.Join(want, " "), time.Since(start).Seconds())
	return 0
}

// runGate runs a gate, printing its bound, measured value and wall time;
// a failure names the gate.
func runGate(g gate) (err error) {
	fmt.Printf("==> %s %s\n", g.name, describe(g))
	t0 := time.Now()
	defer func() {
		r := recover()
		if f, ok := r.(failure); ok {
			err = fmt.Errorf("%s: %w", g.name, f.error)
		} else if r != nil {
			panic(r)
		}
	}()
	v := 0.0
	if g.check != nil {
		v = g.check()
	} else {
		run(g.cmd...)
	}
	expect(v <= g.bound, "measured %g %s, over the bound of %g %s", v, g.unit, g.bound, g.unit)
	measured := ""
	if g.unit != "" {
		measured = fmt.Sprintf(" measured %.6g %s,", v, g.unit)
	}
	fmt.Printf("    ok %s:%s %.1fs\n", g.name, measured, time.Since(t0).Seconds())
	return nil
}

func describe(g gate) string {
	if g.unit == "" {
		return strings.Join(g.cmd, " ")
	}
	return fmt.Sprintf("(<= %g %s) %s", g.bound, g.unit, strings.Join(g.cmd, " "))
}

// failure is what fail, expect and must raise in a check; runGate returns it.
type failure struct{ error }

func fail(format string, args ...any) { panic(failure{fmt.Errorf(format, args...)}) }

func expect(ok bool, format string, args ...any) {
	if !ok {
		fail(format, args...)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(failure{err})
	}
	return v
}

// run runs a command from the repository root with its output on ours.
func run(args ...string) {
	c := exec.Command(args[0], args[1:]...)
	c.Stdout, c.Stderr = os.Stdout, os.Stderr
	if err := c.Run(); err != nil {
		fail("%s: %v", strings.Join(args, " "), err)
	}
}

// output runs a command and returns its standard output.
func output(args ...string) string {
	var stdout, stderr bytes.Buffer
	c := exec.Command(args[0], args[1:]...)
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		fail("%s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.String()
}

// scratch is the run's temporary directory; bins holds what it built there.
var scratch, bins = "", map[string]string{}

func tmp(name string) string {
	if scratch == "" {
		scratch = must(os.MkdirTemp("", "gate-"))
	}
	return filepath.Join(scratch, name)
}

// bin returns the binary of a main package, built once per run.
func bin(pkg string) string {
	if bins[pkg] == "" {
		output("go", "build", "-o", tmp(filepath.Base(pkg)), pkg)
		bins[pkg] = tmp(filepath.Base(pkg))
	}
	return bins[pkg]
}

func tool(pkg string, args ...string) string { return output(append([]string{bin(pkg)}, args...)...) }

func gofmt() float64 {
	out := strings.Fields(output("gofmt", "-l", "."))
	fmt.Println("    gofmt -l:", out)
	return float64(len(out))
}

// longestLine returns the length in bytes of the file's longest line.
func longestLine(path string) float64 {
	longest, at := 0, 0
	for i, l := range bytes.Split(must(os.ReadFile(path)), []byte("\n")) {
		if len(l) > longest {
			longest, at = len(l), i+1
		}
	}
	fmt.Printf("    longest: %s line %d\n", path, at)
	return float64(longest)
}

// budget bounds a size of the tree at the value it last reached, so it
// cannot grow unnoticed; a change that raises a bound says so in CHANGES.md.
func budget(name string, bound float64, unit, what string, measure func() float64) gate {
	return gate{name: name, group: "static", check: measure, bound: bound, unit: unit, why: what + " stays within its budget; a change that raises the bound says so in CHANGES.md"}
}

func fileSize(path string) float64 { return float64(must(os.Stat(path)).Size()) }

// lineCount counts the lines of the files at paths.
func lineCount(paths ...string) (n float64) {
	for _, p := range paths {
		n += float64(bytes.Count(must(os.ReadFile(p)), []byte("\n")))
	}
	return n
}

// goFiles returns the non-test Go files under root, outside benchmark/
// and hidden directories, as slash-separated paths relative to root.
func goFiles(root string) (files []string) {
	must(0, filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			files = append(files, filepath.ToSlash(must(filepath.Rel(root, path))))
		}
		return nil
	}))
	return files
}

var (
	flagToken = regexp.MustCompile(`^\[?--?([a-zA-Z][\w-]*)`)
	helpFlag  = regexp.MustCompile(`(?m)^  -(\S+)`)
)

// docFlags returns a problem for each -flag that a document shows on a
// prdrbsim, experiments or prdrbtrace <subcommand> command line, in a
// fenced block or an inline code span, and that flagsOf(command) lacks.
func docFlags(doc, text string, flagsOf func(cmd string) []string) (bad []string) {
	lines, fenced, inline, span := strings.Split(text, "\n"), false, false, ""
	for i := 0; i < len(lines); i++ {
		at, line, spans := i+1, lines[i], []string(nil)
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced:
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			line, _, _ = strings.Cut(line, " #")
			spans = []string{line}
		case line == "":
			inline, span = false, ""
		default: // an inline span may go on over the next line
			for k, s := range strings.Split(line, "`") {
				if k > 0 {
					if inline = !inline; !inline {
						spans, span = append(spans, span), ""
					}
				}
				if inline {
					span += s + " "
				}
			}
		}
		for _, span := range spans {
			toks := strings.Fields(span)
			for j := 0; j < len(toks); j++ {
				cmd := filepath.Base(toks[j])
				if cmd != "prdrbsim" && cmd != "experiments" && cmd != "prdrbtrace" {
					continue
				}
				if cmd == "prdrbtrace" {
					if j++; j == len(toks) || strings.HasPrefix(toks[j], "-") {
						continue
					}
					cmd += " " + toks[j]
				}
				for j++; j < len(toks) && !slices.Contains([]string{"|", "&&", ";"}, toks[j]) && !strings.Contains(toks[j], ">"); j++ {
					if m := flagToken.FindStringSubmatch(toks[j]); m != nil && m[1] != "h" && m[1] != "help" && !slices.Contains(flagsOf(cmd), m[1]) {
						bad = append(bad, fmt.Sprintf("%s:%d: %s has no flag -%s", doc, at, cmd, m[1]))
					}
				}
			}
		}
	}
	return bad
}

// docsFlags checks README.md and EXPERIMENTS.md against each command's
// -help, which lists its flags.
func docsFlags() float64 {
	known := map[string][]string{}
	flagsOf := func(cmd string) []string {
		if _, ok := known[cmd]; !ok {
			f := strings.Fields(cmd)
			out, _ := exec.Command(bin("./cmd/"+f[0]), append(f[1:], "-help")...).CombinedOutput() // -help exits non-zero
			for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
				known[cmd] = append(known[cmd], m[1])
			}
		}
		return known[cmd]
	}
	bad := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		for _, p := range docFlags(doc, string(must(os.ReadFile(doc))), flagsOf) {
			fmt.Println("   ", p)
			bad++
		}
	}
	return float64(bad)
}

// staleGuards counts the alternatives of the guard rows' -run patterns that
// match no test `go test -list` finds in the row's packages.
func staleGuards(gates []gate) (stale float64) {
	for _, g := range gates {
		i := slices.Index(g.cmd, "-run")
		if !slices.Contains([]string{"barrier-stress", "hop-guards", "window-guards", "zero-alloc"}, g.name) || i < 0 {
			continue
		}
		pkgs := slices.DeleteFunc(slices.Clone(g.cmd[i+2:]), func(a string) bool { return !strings.HasPrefix(a, ".") })
		listed := output(append([]string{"go", "test", "-list", "."}, pkgs...)...) // one name a line
		for _, alt := range strings.Split(g.cmd[i+1], "|") {
			if !regexp.MustCompile(`(?m)^\w*(?:` + alt + `)`).MatchString(listed) {
				fmt.Printf("    %s: -run alternative %q matches no test in %s\n", g.name, alt, strings.Join(pkgs, " "))
				stale++
			}
		}
	}
	return stale
}

var closureCall = regexp.MustCompile(`\.(Schedule|After)\(`)

// closureScan counts closure-scheduling calls in goFiles(root) outside
// the code allowed to keep them.
func closureScan(root string) float64 {
	n := 0
	for _, rel := range goFiles(root) {
		if strings.HasPrefix(rel, "internal/sim/") || rel == "internal/network/shard.go" {
			continue
		}
		for i, l := range bytes.Split(must(os.ReadFile(filepath.Join(root, rel))), []byte("\n")) {
			if closureCall.Match(l) {
				fmt.Printf("    %s:%d: %s\n", rel, i+1, l)
				n++
			}
		}
	}
	return float64(n)
}

// allocGate bounds a benchmark workload's bytes allocated per packet.
func allocGate(workload string, bound float64, was string) gate {
	return gate{name: "alloc-" + workload, group: "alloc", bound: bound, unit: "B/pkt",
		why: "alloc_bytes_per_pkt of `benchmark -workload " + workload + " -seconds 3`: " + was,
		check: func() float64 {
			return must(allocPerPkt(tool("./benchmark", "-workload", workload, "-seconds", "3")))
		}}
}

type metric struct{ Value *float64 }

// allocPerPkt reads metrics.alloc_bytes_per_pkt.value from the JSON last
// line of a benchmark run.
func allocPerPkt(out string) (float64, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct{ Metrics map[string]metric }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("benchmark output ends without its JSON line: %v", err)
	}
	if v := res.Metrics["alloc_bytes_per_pkt"].Value; v != nil {
		return *v, nil
	}
	return 0, fmt.Errorf("benchmark JSON line has no metrics.alloc_bytes_per_pkt.value")
}

func smokeDigests() float64 {
	got := regexp.MustCompile(`(?m)^sim_digest.*\n`).FindAllString(tool("./benchmark", "-smoke"), -1)
	const file = "results/bench.smoke.digests.txt"
	return differ(string(must(os.ReadFile(file))), strings.Join(got, ""), file)
}

// differ returns 0 for equal texts, else prints the first difference and 1.
func differ(want, got, name string) float64 {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	if i == len(want) && i == len(got) {
		return 0
	}
	ln := strings.Count(want[:i], "\n")
	fmt.Printf("    %s differs from its regeneration at line %d:\n    - %q\n    + %q\n", name, ln+1, strings.Split(want, "\n")[ln], strings.Split(got, "\n")[ln])
	return 1
}

// regenerateResults counts the regenerated results/ files that differ or
// are not committed.
func regenerateResults() float64 {
	dir := tmp("results")
	tool("./cmd/experiments", "-out", dir, "-procs", "2")
	committed := strings.Split(output("git", "ls-files", "results"), "\n")
	bad, entries := 0.0, must(os.ReadDir(dir))
	for _, e := range entries {
		rel := "results/" + e.Name()
		if want, err := os.ReadFile(rel); err != nil || !slices.Contains(committed, rel) {
			fmt.Printf("    %s is generated but not committed\n", rel)
			bad++
		} else {
			bad += differ(string(want), string(must(os.ReadFile(filepath.Join(dir, e.Name())))), rel)
		}
	}
	fmt.Printf("    %d generated files compared with results/\n", len(entries))
	return bad
}

type fuzzTarget struct{ name, pkg string }

// discoverFuzz lists every fuzz target `go test -list` finds under dir,
// which prints a package's matching names and then its "ok" line.
func discoverFuzz(dir string) (targets []fuzzTarget) {
	var names []string
	for _, l := range strings.Split(output("go", "-C", dir, "test", "-list", "^Fuzz", "./..."), "\n") {
		if f := strings.Fields(l); strings.HasPrefix(l, "Fuzz") {
			names = append(names, l)
		} else if len(f) >= 2 && f[0] == "ok" {
			for _, name := range names {
				targets = append(targets, fuzzTarget{name, f[1]})
			}
			names = nil
		}
	}
	return targets
}

func fuzzAll(fuzztime time.Duration) {
	for _, t := range discoverFuzz(".") {
		fmt.Printf("==> fuzz %s (%s, %s)\n", t.name, t.pkg, fuzztime)
		run("go", "test", "-run", "^$", "-fuzz", "^"+t.name+"$", "-fuzztime", fuzztime.String(), t.pkg)
	}
}
