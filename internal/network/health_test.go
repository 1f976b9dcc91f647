package network

import (
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// sendAll injects one message per (src, dst) pair in pairs at t=0 and runs
// to completion, returning the number delivered.
func sendAll(t *testing.T, n *Network, pairs [][2]topology.NodeID) int {
	t.Helper()
	delivered := 0
	for i := range n.NICs {
		n.NICs[i].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) {
			delivered++
		}
	}
	n.Eng.Schedule(0, func(e *sim.Engine) {
		for _, pr := range pairs {
			n.NICs[pr[0]].Send(e, pr[1], 256, MPISend, 0)
		}
	})
	n.Eng.RunAll()
	return delivered
}

// TestDegradedTopologyStillRoutes removes links before any traffic and
// checks every source either still delivers or is refused cleanly at
// injection (counted unreachable) — never silently lost, never hung.
func TestDegradedTopologyStillRoutes(t *testing.T) {
	cases := []struct {
		name string
		topo topology.Topology
		// fail lists (router, port) links to take down at t=0.
		fail [][2]int
		// pairs to inject; wantUnreachable of them must be refused.
		pairs           [][2]topology.NodeID
		wantUnreachable int
	}{
		{
			// One east link down in a 4x4 mesh: XY routing for 0->3 crosses
			// it, so packets queue until... never — but the BFS reachability
			// check still passes (other physical routes exist), and the
			// deterministic policy holds the packet at the dead port. Use
			// pairs that avoid the dead link instead: traffic on other rows.
			name: "mesh one link down, unaffected rows deliver",
			topo: topology.NewMesh(4, 4),
			fail: [][2]int{{1, 0}}, // router 1 east <-> router 2
			pairs: [][2]topology.NodeID{
				{4, 7}, {8, 11}, {12, 15}, {7, 4},
			},
		},
		{
			// Torus wrap gives XY routing a second ring: failing one X link
			// still leaves every pair deliverable by the (unchanged)
			// deterministic route unless that route crosses the dead link.
			name: "torus one link down, other direction delivers",
			topo: topology.NewTorus(4, 4),
			fail: [][2]int{{0, 0}}, // router 0 east <-> router 1
			pairs: [][2]topology.NodeID{
				{2, 1}, {5, 6}, {10, 2}, {3, 0},
			},
		},
		{
			// Cutting both links of a corner router partitions terminal 0
			// from the rest of a 2x2 mesh: injection must be refused and
			// counted, not accepted and lost.
			name: "mesh corner cut off is unreachable",
			topo: topology.NewMesh(2, 2),
			fail: [][2]int{{0, 0}, {0, 2}}, // router 0 east and north
			pairs: [][2]topology.NodeID{
				{0, 3}, {3, 0}, {1, 3},
			},
			wantUnreachable: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := testNet(t, tc.topo, nil)
			for _, f := range tc.fail {
				if err := n.FailLink(topology.RouterID(f[0]), f[1]); err != nil {
					t.Fatalf("FailLink(%v): %v", f, err)
				}
			}
			delivered := sendAll(t, n, tc.pairs)
			want := len(tc.pairs) - tc.wantUnreachable
			if delivered != want {
				t.Fatalf("delivered %d of %d messages, want %d", delivered, len(tc.pairs), want)
			}
			if got := int(n.UnreachableMsgs()); got != tc.wantUnreachable {
				t.Fatalf("UnreachableMsgs = %d, want %d", got, tc.wantUnreachable)
			}
			if n.DroppedPkts() != 0 {
				t.Fatalf("dropped %d packets; pre-failure faults must refuse, not drop", n.DroppedPkts())
			}
		})
	}
}

// TestInFlightDropAndRepair fails the only outbound link of a source's
// router while a long message is in flight: in-flight packets on the link
// must be dropped and counted, queued packets must survive the outage, and
// after repair the remainder must deliver.
func TestInFlightDropAndRepair(t *testing.T) {
	n := testNet(t, topology.NewMesh(2, 1), nil)
	e := n.Eng
	delivered := 0
	n.NICs[1].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) {
		delivered++
	}
	// 8 KiB = 8 packets through a single 2-router path.
	e.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 8192, MPISend, 0) })
	e.Schedule(500, func(e *sim.Engine) {
		if err := n.FailLink(0, 0); err != nil {
			t.Errorf("FailLink: %v", err)
		}
	})
	e.Schedule(200_000, func(e *sim.Engine) {
		if err := n.RestoreLink(0, 0); err != nil {
			t.Errorf("RestoreLink: %v", err)
		}
	})
	e.RunAll()
	if n.DroppedPkts() == 0 {
		t.Fatalf("no packet dropped despite mid-flight failure")
	}
	if delivered != 0 {
		t.Fatalf("fragmented message delivered despite a lost fragment")
	}
	// The queue must have drained after repair: everything that was not on
	// the wire at failure time is accepted downstream.
	acc := n.Collector.Throughput.AcceptedPkts
	if acc+n.DroppedPkts() != 8 {
		t.Fatalf("accepted %d + dropped %d != 8 injected", acc, n.DroppedPkts())
	}
	if acc < 6 {
		t.Fatalf("only %d packets survived the outage; queue did not resume after repair", acc)
	}
}

// TestDegradedLinkSlowsButDelivers checks a bandwidth-degraded link still
// delivers everything, later than at nominal rate.
func TestDegradedLinkSlowsButDelivers(t *testing.T) {
	run := func(factor float64) (int, sim.Time) {
		n := testNet(t, topology.NewMesh(2, 1), nil)
		if factor < 1 {
			if err := n.DegradeLink(0, 0, factor); err != nil {
				t.Fatalf("DegradeLink: %v", err)
			}
		}
		delivered := 0
		n.NICs[1].OnMessage = func(*sim.Engine, topology.NodeID, uint64, int, uint8, uint32) {
			delivered++
		}
		n.Eng.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 4096, MPISend, 0) })
		n.Eng.RunAll()
		return delivered, n.Eng.Now()
	}
	gotFull, tFull := run(1)
	gotSlow, tSlow := run(0.25)
	if gotFull != 1 || gotSlow != 1 {
		t.Fatalf("delivery: full=%d slow=%d, want 1 and 1", gotFull, gotSlow)
	}
	if tSlow <= tFull {
		t.Fatalf("degraded run finished at %v, not after nominal %v", tSlow, tFull)
	}
}

// TestDeadLinkHoldsCreditsNoFalseDeadlock parks traffic behind a dead link
// (credits held, queues frozen) and verifies the topology-level deadlock
// checker still reports freedom: a frozen queue is starvation by fault, not
// a channel-dependency cycle, and must not be conflated with deadlock.
func TestDeadLinkHoldsCreditsNoFalseDeadlock(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	n := testNet(t, topo, nil)
	if err := n.FailLink(1, 0); err != nil { // router 1 east, on row 0
		t.Fatal(err)
	}
	// Row-0 eastbound XY traffic piles up behind the dead link and stays
	// parked; cross traffic keeps moving.
	delivered := sendAll(t, n, [][2]topology.NodeID{
		{0, 3}, {1, 3}, // blocked behind the dead link
		{4, 7}, {12, 15}, // clean rows
	})
	if delivered != 2 {
		t.Fatalf("delivered %d, want exactly the 2 clean-row messages", delivered)
	}
	// Engine went quiet with packets parked on credits at the dead port —
	// exactly the state a naive deadlock detector would flag. The formal
	// channel-dependency check must still pass for this topology.
	if err := checkDeadlockFreedom(topo, 4); err != nil {
		t.Fatalf("checkDeadlockFreedom reported a cycle on a faulted-but-sound config: %v", err)
	}
	if n.DroppedPkts() != 0 {
		t.Fatalf("parked packets were dropped (%d); credits must hold them", n.DroppedPkts())
	}
}

// TestPathUsableAndReachable covers the two health predicates directly.
func TestPathUsableAndReachable(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	if !n.PathUsable(0, 3, nil) || !n.Reachable(0, 3) {
		t.Fatalf("healthy fabric reported unusable/unreachable")
	}
	// Fail router 1 east (the 1->2 hop of the XY route 0->3).
	if err := n.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if n.PathUsable(0, 3, nil) {
		t.Fatalf("direct XY path 0->3 usable despite dead 1->2 link")
	}
	// A multistep path detouring through router 5 (waypoint) avoids row 0.
	if !n.PathUsable(0, 3, topology.Path{5}) {
		t.Fatalf("detour via router 5 reported unusable")
	}
	if !n.Reachable(0, 3) {
		t.Fatalf("0->3 reported unreachable though detours exist")
	}
	if err := n.RestoreLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if !n.PathUsable(0, 3, nil) {
		t.Fatalf("path still unusable after repair")
	}
}

// TestFaultFreeFastPath pins the zero-overhead guarantee: with no fault
// ever injected the epoch stays zero, so health checks never walk routes.
func TestFaultFreeFastPath(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	sendAll(t, n, [][2]topology.NodeID{{0, 15}, {15, 0}})
	if n.FaultEpoch() != 0 {
		t.Fatalf("fault epoch advanced to %d without faults", n.FaultEpoch())
	}
	if n.DroppedPkts() != 0 || n.UnreachableMsgs() != 0 {
		t.Fatalf("fault counters moved in a fault-free run")
	}
}

// TestRouterFailurePartition fails an entire switch and checks terminals
// behind it are refused while the rest keep talking.
func TestRouterFailurePartition(t *testing.T) {
	n := testNet(t, topology.NewMesh(4, 4), nil)
	if err := n.FailRouter(5); err != nil {
		t.Fatal(err)
	}
	delivered := sendAll(t, n, [][2]topology.NodeID{
		{5, 0},  // source on the dead router: refused
		{0, 5},  // destination on the dead router: refused
		{0, 15}, // XY route hugs row 0 then column 3, clear of router 5
	})
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if n.UnreachableMsgs() != 2 {
		t.Fatalf("UnreachableMsgs = %d, want 2", n.UnreachableMsgs())
	}
}
