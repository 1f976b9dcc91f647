package core_test

import (
	"testing"

	"prdrb/internal/core"
	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// TestControllerRecoversFromLinkFailure is the end-to-end fault story: a
// PR-DRB source streaming across a mesh loses its direct path to a hard
// link failure mid-run. The loss notification must register as a HIGH-zone
// event (PathFailures), stale saved solutions must go (none here, but the
// path set is pruned), the metapath must reselect onto healthy MSPs so
// delivery resumes without repair, and the recovery latency must land in
// the collector's histogram.
func TestControllerRecoversFromLinkFailure(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	net, err := network.New(eng, topo, network.DefaultConfig(), routing.Deterministic{}, col)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.PRDRBConfig()
	cfg.OpenInterval = 0 // let the FSM open alternatives immediately
	ctls := core.Install(net, cfg, 11)

	const (
		period = 2 * sim.Microsecond
		failAt = 100 * sim.Microsecond
		endAt  = 400 * sim.Microsecond
	)
	delivered, deliveredAfterFail := 0, 0
	net.NICs[3].OnMessage = func(e *sim.Engine, _ topology.NodeID, _ uint64, _ int, _ uint8, _ uint32) {
		delivered++
		if e.Now() > failAt {
			deliveredAfterFail++
		}
	}
	sent := 0
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		if e.Now() >= endAt {
			return
		}
		net.NICs[0].Send(e, 3, 512, network.MPISend, uint32(sent))
		sent++
		e.After(period, tick)
	}
	eng.Schedule(0, tick)
	// The XY route 0->3 runs along row 0; cut its middle link, no repair.
	eng.Schedule(failAt, func(e *sim.Engine) {
		if err := net.FailLink(1, 0); err != nil {
			t.Errorf("FailLink: %v", err)
		}
	})
	eng.Run(sim.Infinity)

	stats := core.AggregateStats(ctls)
	if stats.PathFailures == 0 {
		t.Fatalf("no loss notification reached the source controller")
	}
	if deliveredAfterFail == 0 {
		t.Fatalf("delivery never resumed after the failure (sent %d, delivered %d)", sent, delivered)
	}
	if stats.Recoveries == 0 {
		t.Fatalf("recovery never recorded despite post-failure deliveries")
	}
	if col.Recovery.Count() == 0 {
		t.Fatalf("recovery histogram empty")
	}
	// The metapath toward 3 must have settled on a feasible detour. (The
	// direct path is structural and stays open even while dead; selection
	// just never picks it.)
	paths := ctls[0].Paths(3)
	usable := 0
	for _, p := range paths {
		if net.PathUsable(0, 3, p) {
			usable++
		}
	}
	if usable == 0 {
		t.Fatalf("no usable path open after recovery: %v", paths)
	}
	// Sanity on the measurement itself: recovery latency is positive and
	// bounded by the run.
	if q := col.Recovery.Quantile(0.5); q <= 0 || q > float64(endAt) {
		t.Fatalf("recovery p50 = %v ns, outside (0, %v]", q, endAt)
	}
}
