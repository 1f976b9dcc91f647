package network_test

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// TestPortInvariants runs a congested, flapping dragonfly (eight VCs) and
// fat tree (four) under pr-drb and checks the port-state layout
// (network.CheckPortInvariants) at several quiescent horizons, serial and
// on two shards: byte counts, the nonEmpty mask, the circular lists, parked
// counts, that every packet record is in at most one queue, in-flight slot,
// parked list or freelist, and that the inline VC queues past the fabric's
// VC count stay empty.
func TestPortInvariants(t *testing.T) {
	for _, tc := range []struct{ spec, faults string }{
		// A local (1.0) and a global (0.3) link next to the incast.
		{"df-4-8-2-2", "flap@20us:1.0*12/20us,flap@35us:0.3*8/30us"},
		// A down link into the incast's leaf (16.0) and that leaf's first
		// up link (0.4).
		{"ft-4-3", "flap@20us:16.0*12/20us,flap@35us:0.4*8/30us"},
	} {
		topo, err := topology.ByName(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			checkPortInvariantsRun(t, topo, tc.spec, tc.faults, shards)
		}
	}
}

// checkPortInvariantsRun drives one TestPortInvariants run: incast from
// nodes 8-63 onto nodes 0-3 parks deliveries, uniform traffic from nodes
// 0-7 keeps the other queues busy, and the two links of faults flap under
// it.
func checkPortInvariantsRun(t *testing.T, topo topology.Topology, spec, faults string, shards int) {
	t.Helper()
	s, err := runner.New(runner.Experiment{Topology: topo, Policy: runner.PolicyPRDRB, Seed: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	flows := make(map[topology.NodeID]topology.NodeID)
	for src := 8; src < 64; src++ {
		flows[topology.NodeID(src)] = topology.NodeID(src % 4)
	}
	s.InstallHotSpot(flows, 1900, 0, 300*sim.Microsecond)
	if err := s.InstallPattern(runner.PatternSpec{Pattern: "uniform", RateMbps: 800, End: 300 * sim.Microsecond,
		Nodes: []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}}); err != nil {
		t.Fatal(err)
	}
	plan, err := s.ParseFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallFaults(plan); err != nil {
		t.Fatal(err)
	}
	var seen network.PortCensus
	for _, h := range []sim.Time{25, 40, 60, 90, 130, 180, 250, 2000} {
		s.Execute(h * sim.Microsecond)
		c, err := network.CheckPortInvariants(s.Net)
		if err != nil {
			t.Fatalf("%s, shards=%d at %dus: %v", spec, shards, h, err)
		}
		seen.Queued = max(seen.Queued, c.Queued)
		seen.Parked = max(seen.Parked, c.Parked)
		seen.InFlight = max(seen.InFlight, c.InFlight)
		seen.Free = max(seen.Free, c.Free)
	}
	if seen.Queued == 0 || seen.Parked == 0 || seen.Free == 0 || s.Net.DroppedPkts() == 0 {
		t.Fatalf("%s, shards=%d: the run never queued, parked, pooled and dropped at once (%+v, %d drops)",
			spec, shards, seen, s.Net.DroppedPkts())
	}
}

// TestContendingStorageNotShared runs a congested dragonfly under pr-drb in
// both notification modes, serial and on two shards, and checks at several
// quiescent horizons that no two packet records — queued, in flight, parked
// or free — share a cold record or a contending backing array, and that
// every free record's cold record is empty (network.CheckPortInvariants):
// routers merge into a data packet's own header, router-originated ACKs
// copy the contending set, a destination's ACK swaps cold records with the
// data packet it answers, and release empties the cold record it keeps.
// A congestion-off adaptive run, which sends no notifications, must make no
// cold record at all.
func TestContendingStorageNotShared(t *testing.T) {
	topo, err := topology.ByName("df-4-8-2-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []network.NotifyMode{network.DestinationBased, network.RouterBased} {
		for _, shards := range []int{1, 2} {
			cfg := network.DefaultConfig()
			cfg.NotifyMode = mode
			s, err := runner.New(runner.Experiment{Topology: topo, Policy: runner.PolicyPRDRB, Seed: 5, Shards: shards, Network: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			flows := make(map[topology.NodeID]topology.NodeID)
			for src := 8; src < 64; src++ {
				flows[topology.NodeID(src)] = topology.NodeID(src % 4)
			}
			s.InstallHotSpot(flows, 1900, 0, 300*sim.Microsecond)
			if err := s.InstallPattern(runner.PatternSpec{Pattern: "uniform", RateMbps: 800, End: 300 * sim.Microsecond}); err != nil {
				t.Fatal(err)
			}
			headers, colds := 0, 0
			for _, h := range []sim.Time{30, 60, 100, 150, 220, 300, 2000} {
				s.Execute(h * sim.Microsecond)
				c, err := network.CheckPortInvariants(s.Net)
				if err != nil {
					t.Fatalf("mode %v, shards=%d at %dus: %v", mode, shards, h, err)
				}
				headers, colds = max(headers, c.Headers), max(colds, c.Colds)
			}
			if headers < 50 || colds < headers {
				t.Fatalf("mode %v, shards=%d: at most %d records held contending storage and %d a cold record; the run no longer congests",
					mode, shards, headers, colds)
			}
		}
	}
	for _, shards := range []int{1, 2} {
		s, err := runner.New(runner.Experiment{Topology: topo, Policy: runner.PolicyAdaptive, Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallPattern(runner.PatternSpec{Pattern: "uniform", RateMbps: 800, End: 300 * sim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		for _, h := range []sim.Time{100, 300, 2000} {
			s.Execute(h * sim.Microsecond)
			c, err := network.CheckPortInvariants(s.Net)
			if err != nil {
				t.Fatalf("adaptive, shards=%d at %dus: %v", shards, h, err)
			}
			if c.Colds != 0 || c.Free == 0 {
				t.Fatalf("adaptive, shards=%d at %dus: %d of the records hold a cold record (%d free), want none", shards, h, c.Colds, c.Free)
			}
		}
	}
}
