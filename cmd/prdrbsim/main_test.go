package main

import (
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

func TestRunOnceSmoke(t *testing.T) {
	topo, err := prdrb.TopologyByName("mesh-4x4")
	if err != nil {
		t.Fatal(err)
	}
	_, res, _, err := runOnce(topo, "drb", 1, runSpec{
		pattern: "uniform", rate: 300, bursts: 2,
		burstLen: 100_000, burstGap: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPkts == 0 || res.AcceptedRatio != 1 {
		t.Fatalf("smoke run broken: %+v", res)
	}
	// Continuous (non-burst) mode.
	_, res2, _, err := runOnce(topo, "adaptive", 1, runSpec{
		pattern: "uniform", rate: 300, bursts: 0, duration: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeliveredPkts == 0 {
		t.Fatal("continuous mode delivered nothing")
	}
	// Workload mode with execution time (16 ranks fit the 4x4 mesh).
	ft, err := prdrb.TopologyByName("ft-4-3")
	if err != nil {
		t.Fatal(err)
	}
	_, res3, exec, err := runOnce(ft, "pr-drb", 1, runSpec{workload: "sweep3d", iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exec <= 0 || res3.DeliveredPkts == 0 {
		t.Fatal("workload mode broken")
	}
	// -nodes beyond the fabric is an error in both traffic modes, not
	// packets addressed to terminals that do not exist.
	for _, spec := range []runSpec{
		{pattern: "shuffle", rate: 300, bursts: 1, burstLen: 1000, burstGap: 1000, nodes: 32},
		{pattern: "shuffle", rate: 300, duration: 1000, nodes: 32},
	} {
		if _, _, _, err := runOnce(topo, "deterministic", 1, spec); err == nil {
			t.Fatalf("a 32-node pattern space on a 16-terminal mesh was accepted (%+v)", spec)
		}
	}
	// Unknown policy errors.
	if _, _, _, err := runOnce(topo, "bogus", 1, runSpec{pattern: "uniform", rate: 1, bursts: 1, burstLen: 1000, burstGap: 1000}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
