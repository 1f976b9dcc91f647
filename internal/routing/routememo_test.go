package routing

import (
	"fmt"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// upFilter is UpPorts from first principles: the live subset, or the whole
// set when nothing in it is live.
func upFilter(r *network.Router, ports []int) []int {
	var up []int
	for _, p := range ports {
		if r.PortUp(p) {
			up = append(up, p)
		}
	}
	if len(up) == 0 {
		return ports
	}
	return up
}

// TestRouteMemoMatchesTopology pins the router's NextHop and memoised
// MinimalPorts to the topology's own answers — asked twice, so both the
// filling and the memoised read are covered — for every (router,
// destination) pair of the 64-node shapes and 10 000 sampled pairs of the
// 4096-node dragonfly, on a healthy fabric and again after a link failure,
// where the routing layer's UpPorts filter has to apply on top of the memo.
func TestRouteMemoMatchesTopology(t *testing.T) {
	filtered := 0 // decisions where the health filter removed a port
	for _, spec := range []string{"mesh-8x8", "torus-8x8", "ft-4-3", "df-4-8-2-2", "df-16-32-8-8"} {
		topo, err := topology.ByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := buildNet(t, topo, Deterministic{})
		routers, terminals := topo.NumRouters(), topo.NumTerminals()
		pairs := routers * terminals
		sampled := pairs > 100_000
		if sampled {
			pairs = 10_000
		}
		rng := sim.NewRNG(7)
		scratch := make([]int, 0, 64)
		check := func(phase string) {
			t.Helper()
			for i := 0; i < pairs; i++ {
				r, dst := topology.RouterID(i/terminals), topology.NodeID(i%terminals)
				if sampled {
					r, dst = topology.RouterID(rng.Intn(routers)), topology.NodeID(rng.Intn(terminals))
				}
				rt := net.Routers[r]
				wantHop := topo.NextHop(r, dst)
				wantPorts := append([]int(nil), topo.MinimalPorts(r, dst, scratch)...)
				wantUp := upFilter(rt, wantPorts)
				if len(wantUp) != len(wantPorts) {
					filtered++
				}
				for pass := 0; pass < 2; pass++ {
					if got := rt.NextHop(dst); got != wantHop {
						t.Fatalf("%s %s: router %d NextHop(%d) = %d, topology says %d (pass %d)", spec, phase, r, dst, got, wantHop, pass)
					}
					if got := rt.MinimalPorts(dst); fmt.Sprint(got) != fmt.Sprint(wantPorts) {
						t.Fatalf("%s %s: router %d MinimalPorts(%d) = %v, topology says %v (pass %d)", spec, phase, r, dst, got, wantPorts, pass)
					}
					if got := HealthyMinimalPorts(rt, dst); fmt.Sprint(got) != fmt.Sprint(wantUp) {
						t.Fatalf("%s %s: router %d HealthyMinimalPorts(%d) = %v, want %v (pass %d)", spec, phase, r, dst, got, wantUp, pass)
					}
				}
			}
		}
		check("healthy")
		// Fail router 0's first inter-router link: some minimal sets now
		// contain a dead port.
		failed := -1
		for p := 0; p < topo.Radix(0); p++ {
			if peer := topo.PortPeer(0, p); peer.IsRouter() && !peer.Unwired() {
				failed = p
				break
			}
		}
		if err := net.FailLink(0, failed); err != nil {
			t.Fatal(err)
		}
		if net.FaultEpoch() == 0 {
			t.Fatal("link failure did not advance the fault epoch")
		}
		check("after failure")
	}
	if filtered == 0 {
		t.Fatal("no decision had a dead port among its minimal set; the filter was never exercised")
	}
}
