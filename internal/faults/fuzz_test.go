package faults

import (
	"strings"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// hostileSpecs once panicked the parser, slipped a NaN factor past
// Validate, or asked for an unbounded number of events.
var hostileSpecs = []struct{ spec, want string }{
	{"rand1@0s+2562047h47m16.854775807s", "overflows"},
	{"degrade@10us:5.1*NaN", "factor"},
	{"flap@10us:5.1*1048577/100us", "cycle count"},
	{"flap@1ms:5.1*1000/2562047h", "overflow"},
}

func TestParsePlanRejectsHostile(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, tc := range hostileSpecs {
		_, err := ParsePlan(tc.spec, topo, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%q): err = %v, want one mentioning %q", tc.spec, err, tc.want)
		}
	}
}

// FuzzParsePlan: no spec panics ParsePlan on a mesh or a dragonfly, and
// every plan it accepts validates and installs. Plans above maxInstalled
// events (a flap clause may hold 2<<20) are validated but not installed,
// which keeps each input's memory small.
func FuzzParsePlan(f *testing.F) {
	const maxInstalled = 1 << 12
	for _, tc := range hostileSpecs {
		f.Add(tc.spec)
	}
	for _, spec := range []string{
		"link@500us:5.1+2ms", "router@100us:5+50us", "degrade@10us:5.1*0.5+100us",
		"flap@50us:5.1*3/200us", "rand2@1ms+500us~2ms, link@0s:6.2",
	} {
		f.Add(spec)
	}
	var topos []topology.Topology
	for _, name := range []string{"mesh-4x4", "df-4-8-2-2"} {
		topo, err := topology.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		topos = append(topos, topo)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, topo := range topos {
			plan, err := ParsePlan(spec, topo, 1)
			if err != nil {
				continue
			}
			if err := plan.Validate(topo); err != nil {
				t.Fatalf("%s: ParsePlan(%q) accepted an invalid plan: %v", topo.Name(), spec, err)
			}
			if len(plan.Events) > maxInstalled {
				continue
			}
			net := network.MustNew(sim.NewEngine(), topo, network.DefaultConfig(), routing.Deterministic{}, nil)
			if _, err := Install(net, plan); err != nil {
				t.Fatalf("%s: Install refused an accepted plan %q: %v", topo.Name(), spec, err)
			}
		}
	})
}
