package trace_test

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

// TestReplayAllocs pins the replay's allocations to its set-up: on a fabric
// whose pools a first replay has filled, replaying nas-lu at 4 and at 12
// iterations allocates the same few objects (the rank array and, per rank,
// one hook, at most one inbox and a request queue growing to the depth its
// program needs) — nothing per replayed MPI operation. Messages are kept to one packet so the fabric reassembles,
// and so allocates, nothing of its own.
func TestReplayAllocs(t *testing.T) {
	net := network.MustNew(sim.NewEngine(), topology.NewKAryNTree(4, 3), network.DefaultConfig(), routing.Deterministic{}, nil)
	measure := func(iters int) (allocs float64, ops int) {
		tr, err := workloads.ByName("nas-lu", workloads.Options{Iterations: iters, MsgBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(2, func() {
			rep, err := trace.NewReplay(net, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep.Start(net.Eng.Now())
			net.Eng.Run(sim.Infinity)
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, tr.TotalEvents()
	}
	measure(12) // warm the packet pool and the engine's free list
	short, shortOps := measure(4)
	long, longOps := measure(12)
	t.Logf("nas-lu: %.0f allocations replaying %d events, %.0f replaying %d", short, shortOps, long, longOps)
	// A collection that falls inside a run can add an object of the
	// runtime's own; per-operation allocation would add thousands.
	if long-short > 2 {
		t.Fatalf("replaying %d more events took %.0f more allocations, want none", longOps-shortOps, long-short)
	}
	if limit := float64(5*net.Topo.NumTerminals() + 16); long > limit {
		t.Fatalf("a replay allocated %.0f objects, want <= %.0f (set-up only)", long, limit)
	}
}

// TestTraceBytesPerEvent pins what a stored event costs, the call store
// counted: a few bytes of encoded record on every generator, where a
// decoded Event is 32, and less than one where a collective's records are
// called each iteration instead of stored again.
func TestTraceBytesPerEvent(t *testing.T) {
	var sum float64
	for _, name := range workloads.Names() {
		tr, err := workloads.ByName(name, workloads.Options{})
		if err != nil {
			t.Fatal(err)
		}
		per := float64(tr.ProgramBytes()) / float64(tr.TotalEvents())
		t.Logf("%-16s %7d events %8d B %.2f B/event", name, tr.TotalEvents(), tr.ProgramBytes(), per)
		if per > 4 {
			t.Errorf("%s stores %.2f B per event, want <= 4", name, per)
		}
		sum += per
	}
	if mean := sum / float64(len(workloads.Names())); mean > 2.25 {
		t.Errorf("the generators store %.2f B per event on average, want <= 2.25", mean)
	}
}
