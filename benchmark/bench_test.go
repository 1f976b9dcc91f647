package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"prdrb"
	"prdrb/internal/runner"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEmitsEveryMetric drives -smoke (every workload, ladder rung and
// probe at ~1/50 size) and checks the output against BENCHMARK.json: every
// listed metric is emitted exactly once per applicable workload, with its
// unit, under a well-formed name.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	outDirOverride = t.TempDir()
	defer func() { outDirOverride = "" }()
	var buf bytes.Buffer
	if code, err := runSmoke(options{seed: 1}, &buf); err != nil || code != 0 {
		t.Fatalf("smoke failed (code %d): %v\n%s", code, err, buf.String())
	}
	seen := map[string]int{} // "<kind> <workload> <metric> <unit>"
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && (f[0] == "e2e" || f[0] == "layer") {
			seen[strings.Join([]string{f[0], f[1], f[2], f[4]}, " ")]++
			if !nameRE.MatchString(f[2]) {
				t.Errorf("malformed metric name %q", f[2])
			}
		}
	}
	m := loadManifest(t)
	if len(m.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(allWorkloads))
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	for i, w := range m.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, allWorkloads[i].name)
		}
		check := func(kind string, mm manifestMetric) {
			d, ok := defs[mm.Name]
			if !ok {
				t.Errorf("%s: not a metric of the harness", mm.Name)
				return
			}
			want := 1
			if !d.appliesTo(w.Name) {
				want = 0
			}
			key := kind + " " + w.Name + " " + mm.Name + " " + mm.Unit
			if seen[key] != want {
				t.Errorf("%q emitted %d times, want %d", key, seen[key], want)
			}
		}
		for _, mm := range m.EndToEnd {
			check("e2e", mm)
		}
		for _, mm := range m.PerLayer {
			kind := "layer"
			check(kind, mm)
		}
	}
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the metric tables equal.
func TestManifestMatchesHarness(t *testing.T) {
	m := loadManifest(t)
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, rep counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics exceed the cap of 128", len(m.PerLayer))
	}
	setup := false
	for i, mm := range m.EndToEnd {
		d := endToEnd[i]
		if mm.Name != d.Name || mm.Unit != d.Unit || mm.Better != d.Better || mm.Bound == nil || *mm.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, mm, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s [s, lower] missing from end_to_end")
	}
	names := map[string]bool{}
	for i, mm := range m.PerLayer {
		d := perLayer[i]
		if mm.Name != d.Name || mm.Unit != d.Unit || mm.Better != d.Better || mm.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, mm, d)
		}
		if names[mm.Name] || !nameRE.MatchString(mm.Name) {
			t.Errorf("per_layer name %q repeated or malformed", mm.Name)
		}
		names[mm.Name] = true
	}
}

func smokeHarness(name string, seed uint64) *harness {
	w, err := workloadByName(name)
	if err != nil {
		panic(err)
	}
	return &harness{w: w, seed: seed, reps: 3, scale: smokeScale, setupPasses: -1}
}

// TestSeedDiscipline: -seed is the only source of randomness. The same
// seed yields byte-identical generated inputs and sim_digest, another seed
// yields different ones, and nothing handed to the simulator names the
// workload or carries the harness seed.
func TestSeedDiscipline(t *testing.T) {
	for _, name := range []string{"ft64-uniform-serial", "ft64-bursts-drbfamily"} {
		run := func(seed uint64) *runResult {
			rr, err := smokeHarness(name, seed).run()
			if err != nil {
				t.Fatal(err)
			}
			return rr
		}
		a, b, c := run(11), run(11), run(12)
		if !bytes.Equal(a.in.bytes(), b.in.bytes()) || a.digest != b.digest {
			t.Errorf("%s: the same seed gave different inputs or digest", name)
		}
		if bytes.Equal(a.in.bytes(), c.in.bytes()) || a.digest == c.digest {
			t.Errorf("%s: another seed gave the same inputs or digest", name)
		}
		for _, rep := range a.in.Reps {
			for _, cell := range rep {
				js, _ := json.Marshal(cell)
				if bytes.Contains(js, []byte(name)) || cell.Seed == 11 {
					t.Errorf("%s: a cell leaks the workload name or the harness seed: %s", name, js)
				}
			}
		}
	}
}

// TestSpanNeverFromElapsed: on a sharded run Results.Elapsed is the
// horizon, not the drain time; the simulated span comes from the spec.
func TestSpanNeverFromElapsed(t *testing.T) {
	spec := uniformCell(5, smokeScale, 2)
	cr := runCell(spec, "t", nil)
	if cr.failure != "" {
		t.Fatal(cr.failure)
	}
	if cr.res.Elapsed != horizon {
		t.Logf("Results.Elapsed on a sharded run is now %v (was the horizon); the known issue may be fixed", cr.res.Elapsed)
	}
	if want := int64(spec.Pattern.End); cr.spanNs != want || cr.spanNs == int64(cr.res.Elapsed) {
		t.Errorf("simulated span %d ns, want the injection window %d ns (Elapsed %d)", cr.spanNs, want, cr.res.Elapsed)
	}
}

// TestDefaultsAsserted: a set runner.Default* global stops the harness.
func TestDefaultsAsserted(t *testing.T) {
	if err := assertDefaultsUnset(); err != nil {
		t.Fatal(err)
	}
	runner.DefaultShards = 2
	defer func() { runner.DefaultShards = 0 }()
	if err := assertDefaultsUnset(); err == nil {
		t.Error("DefaultShards=2 went unnoticed")
	}
	if _, err := smokeHarness("ft64-uniform-serial", 1).run(); err == nil {
		t.Error("the harness measured with a runner.Default* global set")
	}
}

// TestWarmupDiscardedAndGCBetweenReps: the warm-up rep is executed and
// checked but never timed, and runtime.GC runs only outside timed regions.
func TestWarmupDiscardedAndGCBetweenReps(t *testing.T) {
	h := smokeHarness("ft64-uniform-serial", 3)
	calls := 0
	h.gc = func() {
		calls++
		if h.timed {
			t.Error("GC forced inside a timed region")
		}
		runtime.GC()
	}
	rr, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.timed) != h.reps || len(rr.heapMB) != h.reps {
		t.Errorf("%d timed reps and %d heap samples, want %d", len(rr.timed), len(rr.heapMB), h.reps)
	}
	if rr.attempted != h.reps+1 {
		t.Errorf("attempted %d cells, want %d timed + 1 warm-up", rr.attempted, h.reps)
	}
	for _, rep := range rr.timed {
		if strings.HasPrefix(rep.cells[0].id, "-1/") {
			t.Error("the warm-up rep is among the timed reps")
		}
	}
	if want := 1 + 2*h.reps; calls != want {
		t.Errorf("%d forced collections, want %d (one before the reps, two after each)", calls, want)
	}
}

func TestHostHeader(t *testing.T) {
	h := newHostHeader(7, 10)
	if h.GOMAXPROCS < 1 || h.GOMAXPROCS > 2 || h.HostCPUs < 1 || h.CPUModel == "" ||
		h.GoVersion == "" || h.GitDescribe == "" || h.Seed != 7 || h.Seconds != 10 {
		t.Errorf("incomplete header: %+v", h)
	}
	var buf bytes.Buffer
	printHeader(&buf, h)
	for _, key := range []string{"gomaxprocs=", "host_cpus=", "cpu_model=", "go=", "git=", "seed="} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("header line lacks %s: %s", key, buf.String())
		}
	}
}

// TestFullSetUsesAFreshProcessPerWorkload: heap metrics need a clean
// runtime, so the full set spawns one process per workload.
func TestFullSetUsesAFreshProcessPerWorkload(t *testing.T) {
	var got []string
	old := spawn
	defer func() { spawn = old }()
	spawn = func(args []string) ([]byte, error) {
		got = append(got, strings.Join(args, " "))
		return []byte("e2e w setup_s 0.5 s lower\nsim_digest w abc\n" +
			`{"correct":true,"attempted":3,"failed":0,"metrics":{}}` + "\n"), nil
	}
	var buf bytes.Buffer
	if code, err := runFullSet(options{seed: 9, seconds: 10}, &buf); code != 0 || err != nil {
		t.Fatalf("code %d, err %v", code, err)
	}
	if len(got) != len(allWorkloads) {
		t.Fatalf("%d processes for %d workloads", len(got), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if want := "-workload " + w.name + " -seed 9 -seconds 10 -trace 0"; got[i] != want {
			t.Errorf("process %d ran %q, want %q", i, got[i], want)
		}
	}
}

// TestGateFailsTheProcess injects an undrained cell (its injection window
// outlasts the horizon) and a lossy result, and requires the harness to
// name the broken check and exit non-zero.
func TestGateFailsTheProcess(t *testing.T) {
	bad := &workload{
		name: "test-undrained", reps: 1,
		cells: func(seed uint64, _ float64) []cellSpec {
			return []cellSpec{{Topology: "mesh-4x4", Policy: "deterministic", Seed: seed,
				Pattern: &prdrb.PatternSpec{Pattern: "uniform", RateMbps: 1, End: horizon + prdrb.Second}}}
		},
	}
	allWorkloads = append(allWorkloads, bad)
	defer func() { allWorkloads = allWorkloads[:len(allWorkloads)-1] }()
	var buf bytes.Buffer
	code, err := dispatch(options{workload: bad.name, seed: 1, seconds: 1}, &buf)
	if code == 0 || err == nil {
		t.Errorf("an undrained cell exited with code %d, err %v", code, err)
	}
	if !strings.Contains(buf.String(), "FAILED test-undrained cell") || !strings.Contains(buf.String(), "undrained") {
		t.Errorf("the report does not name the failed check:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("last line %q: err %v, want correct=false and failed>0", lines[len(lines)-1], err)
	}

	ok := prdrb.Results{AcceptedRatio: 1, DeliveredPkts: 10}
	for name, r := range map[string]prdrb.Results{
		"accepted": {AcceptedRatio: 0.9, DeliveredPkts: 9},
		"dropped":  {AcceptedRatio: 1, DeliveredPkts: 10, DroppedPkts: 1},
		"refused":  {AcceptedRatio: 1, DeliveredPkts: 10, UnreachableMsgs: 1},
		"empty":    {AcceptedRatio: 1},
	} {
		if !strings.HasPrefix(checkCell(r, 0, nil), "loss") {
			t.Errorf("%s: lossy result passed the gate", name)
		}
	}
	if checkCell(ok, 0, nil) != "" || !strings.HasPrefix(checkCell(ok, 3, nil), "undrained") {
		t.Error("gate misjudged a clean / an undrained result")
	}
}

func TestTwinMismatch(t *testing.T) {
	serial := prdrb.Results{DeliveredPkts: 100, GlobalLatencyUs: 10}
	for _, c := range []struct {
		sharded prdrb.Results
		bad     bool
	}{
		{prdrb.Results{DeliveredPkts: 100, GlobalLatencyUs: 10.05}, false},
		{prdrb.Results{DeliveredPkts: 100, GlobalLatencyUs: 10.2}, true},
		{prdrb.Results{DeliveredPkts: 99, GlobalLatencyUs: 10}, true},
	} {
		if got := twinMismatch(serial, c.sharded) != ""; got != c.bad {
			t.Errorf("twinMismatch(%+v) = %v, want %v", c.sharded, got, c.bad)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(wall float64, digest string) map[string]childRun {
		set := map[string]childRun{}
		for _, w := range allWorkloads {
			e2e := map[string]float64{}
			for _, d := range reportedEndToEnd() {
				e2e[d.Name] = 100
			}
			e2e["wall_s_per_sim_ms"] = wall
			set[w.name] = childRun{e2e: e2e, digest: digest}
		}
		return set
	}
	var buf bytes.Buffer
	if code, err := compareSets([2]map[string]childRun{mk(1, "d"), mk(1.2, "d")}, &buf); code != 0 {
		t.Errorf("a 20 %% move of a 0.25-bound metric failed the selfcheck: %v", err)
	}
	if code, _ := compareSets([2]map[string]childRun{mk(1, "d"), mk(1.3, "d")}, &buf); code == 0 {
		t.Error("a 30 % move passed the selfcheck")
	}
	if code, _ := compareSets([2]map[string]childRun{mk(1, "d"), mk(1, "e")}, &buf); code == 0 {
		t.Error("different sim_digests passed the selfcheck")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if got := fmt.Sprint(summarize(nil)); got != "{0 0 0 0}" {
		t.Errorf("summarize(nil) = %s", got)
	}
	if w, _ := workloadByName("ft64-uniform-serial"); w.repCount(refSeconds) != w.reps || w.repCount(1) != 3 {
		t.Errorf("repCount: %d at the reference length, %d at 1 s", w.repCount(refSeconds), w.repCount(1))
	}
}
