package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"prdrb"
)

func TestParseTopology(t *testing.T) {
	cases := map[string]struct {
		terms int
		ok    bool
	}{
		"mesh-8x8":  {64, true},
		"mesh-4x2":  {8, true},
		"torus-5x5": {25, true},
		"ft-4-3":    {64, true},
		"ft-2-2":    {4, true},
		"mesh-8":    {0, false},
		"mesh-axb":  {0, false},
		"ft-4":      {0, false},
		"ft-a-b":    {0, false},
		"ring-9":    {0, false},
	}
	for spec, want := range cases {
		topo, err := prdrb.TopologyByName(spec)
		if want.ok != (err == nil) {
			t.Errorf("%q: err = %v, want ok=%v", spec, err, want.ok)
			continue
		}
		if err == nil && topo.NumTerminals() != want.terms {
			t.Errorf("%q: %d terminals, want %d", spec, topo.NumTerminals(), want.terms)
		}
	}
}

// bursts is n uniform bursts at 300 Mbps/node, the smoke tests' traffic.
func bursts(topo prdrb.Topology, policy prdrb.Policy, n int, length prdrb.Time) prdrb.Scenario {
	return prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: topo, Policy: policy, Seed: 1},
		Bursts:     &prdrb.BurstSpec{Pattern: "uniform", RateMbps: 300, Len: length, Gap: length, Count: n},
		Drain:      prdrb.Second,
	}
}

func TestRunOnceSmoke(t *testing.T) {
	topo, err := prdrb.TopologyByName("mesh-4x4")
	if err != nil {
		t.Fatal(err)
	}
	_, res, _, err := runOnce(bursts(topo, "drb", 2, 100_000), checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPkts == 0 || res.AcceptedRatio != 1 {
		t.Fatalf("smoke run broken: %+v", res)
	}
	// Continuous (non-burst) mode.
	_, res2, _, err := runOnce(prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: topo, Policy: "adaptive", Seed: 1},
		Pattern:    &prdrb.PatternSpec{Pattern: "uniform", RateMbps: 300, End: 200_000},
		Drain:      prdrb.Second,
	}, checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeliveredPkts == 0 {
		t.Fatal("continuous mode delivered nothing")
	}
	// Workload mode with execution time.
	ft, err := prdrb.TopologyByName("ft-4-3")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prdrb.Workload("sweep3d", prdrb.WorkloadOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, res3, exec, err := runOnce(prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: ft, Policy: "pr-drb", Seed: 1},
		Traces:     []prdrb.MappedTrace{{Trace: tr}},
		Drain:      10 * prdrb.Second,
	}, checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	if exec <= 0 || res3.DeliveredPkts == 0 {
		t.Fatal("workload mode broken")
	}
	// -nodes beyond the fabric is an error in both traffic modes, not
	// packets addressed to terminals that do not exist.
	burst := bursts(topo, "deterministic", 1, 1000)
	burst.Bursts.Pattern, burst.Bursts.PatternNodes = "shuffle", 32
	for _, sc := range []prdrb.Scenario{burst, {
		Experiment: burst.Experiment,
		Pattern:    &prdrb.PatternSpec{Pattern: "shuffle", RateMbps: 300, End: 1000, PatternNodes: 32},
	}} {
		if _, _, _, err := runOnce(sc, checkpointing{}); err == nil {
			t.Fatalf("a 32-node pattern space on a 16-terminal mesh was accepted (%+v)", sc)
		}
	}
	// Unknown policy errors.
	if _, _, _, err := runOnce(bursts(topo, "bogus", 1, 1000), checkpointing{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Trace and GOAL replays drive the serial engine whatever -shards says, so
// a replay asked for 2 shards gives the results of a serial one.
func TestReplayIgnoresShards(t *testing.T) {
	tr, err := prdrb.Workload("lammps-chain", prdrb.WorkloadOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := prdrb.GoalFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, replay := range []prdrb.Scenario{{Traces: []prdrb.MappedTrace{{Trace: tr}}}, {Goal: g}} {
		var res [2]prdrb.Results
		var exec [2]prdrb.Time
		for i, shards := range []int{1, 2} {
			sc := replay
			sc.Experiment = prdrb.Experiment{Topology: prdrb.FatTree(4, 3), Policy: prdrb.PolicyPRDRB, Seed: 1, Shards: shards}
			sc.Drain = 10 * prdrb.Second
			var err error
			if _, res[i], exec[i], err = runOnce(sc, checkpointing{}); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		}
		if res[0] != res[1] || exec[0] != exec[1] || exec[0] == 0 {
			t.Errorf("-shards 2 replay differs from -shards 1:\n%+v exec %d\n%+v exec %d", res[1], exec[1], res[0], exec[0])
		}
	}
}

// TestSeedsBelowOneRejected: -seeds 0 once printed a zero summary line and
// exited 0. It exits 2 with a message now.
func TestSeedsBelowOneRejected(t *testing.T) {
	bin := buildSim(t)
	var stderr strings.Builder
	cmd := exec.Command(bin, "-seeds", "0", "-topology", "mesh-4x4", "-duration", "10us", "-bursts", "0", "-pattern", "uniform")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "want at least 1") {
		t.Errorf("-seeds 0: err %v, stderr %q; want exit 2 naming the bound", err, stderr.String())
	}
}

// TestNegativeWindowsRejected: -congestion-window -1us once wrote
// "window_ns": 10000 and -status-interval -1us sampled every 100µs. Both
// exit non-zero naming the flag's value now.
func TestNegativeWindowsRejected(t *testing.T) {
	bin := buildSim(t)
	run := []string{"-topology", "mesh-4x4", "-duration", "10us", "-bursts", "0", "-pattern", "uniform"}
	for _, c := range []struct{ args, want string }{
		{"-congestion -congestion-window -1us", "congestion window -1.000us is negative"},
		{"-status 127.0.0.1:0 -status-interval -1us", "-status-interval -1µs is negative"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(bin, append(strings.Fields(c.args), run...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: err %v, stderr %q; want a non-zero exit saying %q", c.args, err, stderr.String(), c.want)
		}
	}
}

// buildSim builds this command into a temporary directory.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prdrbsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
