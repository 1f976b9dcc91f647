package prdrb

import (
	"runtime"
	"strings"
	"testing"

	"prdrb/internal/core"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// TestHotPathZeroAlloc is the allocation guard for the typed-event core:
// once a saturated run is warmed up (event records recycled through the
// engine freelist, packets through the network pool, topology scratch
// primed), stepping the simulator must not allocate at all. Any new
// closure, boxing, or map/slice growth on the hot path fails this test.
// It doubles as the telemetry-off guard: a simulation built without
// telemetry must carry a nil tracer, so every trace emission site reduces
// to one pointer comparison and the zero-alloc bound covers them all.
func TestHotPathZeroAlloc(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyAdaptive, Seed: 7})
	if s.Telemetry != nil || s.Net.Shards[0].Tracer != nil {
		t.Fatal("telemetry must stay detached unless the experiment asks for it")
	}
	// Same contract for the congestion observability plane: off by default,
	// so its port-level hooks reduce to nil checks covered by this bound.
	if s.Net.CongestionEnabled() {
		t.Fatal("congestion accounting must stay detached unless the experiment asks for it")
	}
	for _, rec := range s.Net.FlightRecorders() {
		if rec != nil {
			t.Fatal("flight recorder attached without Experiment.Congestion")
		}
	}
	// Sustained load, stable queues: the measurement runs against this.
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 400, Start: 0, End: Second}); err != nil {
		t.Fatal(err)
	}
	// Priming overlay: 2 ms of additional supersaturating traffic pushes
	// every high-water mark (packet pool, per-port queues, the engine's
	// event-record freelist and far-overflow heap) far above anything the
	// stable load will reach, so the measured window sees no capacity
	// growth — only recycling.
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 800, Start: 0, End: 2 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Warm past the overlay and drain its backlog transient.
	s.Eng.Run(6 * Millisecond)
	if s.Eng.Len() == 0 {
		t.Fatal("queue drained during warmup; workload no longer saturates the engine")
	}
	avg := testing.AllocsPerRun(5, func() {
		runEvents(t, s.Eng, 20000)
	})
	if avg != 0 {
		t.Fatalf("hot path allocates %.2f allocs per 20k events, want 0", avg)
	}
}

// TestHotPathZeroAllocPRDRB extends the guard to the PR-DRB control plane
// on a shuffle cell of ft-4-3.
//
// steady: a supersaturating overlay opens paths (and saves and re-applies
// solutions) for 2 ms, then the cell settles into a load under which some
// metapaths stay open. Injections over those paths, their ACKs and the
// zone evaluations and path closings they drive — PrepareInjection,
// HandleAck, evaluate, maybeClose, observeTrend — must allocate nothing:
// metapaths, their evidence maps and path slices are at their high-water
// marks, and a packet's waypoints alias its path's record instead of
// copying it. (Saving a new solution allocates its storage, see
// SolutionDB.Save, and is absent from a window this quiet.)
//
// cold-open: the bill of the first congestion toward a destination the
// source has never used — metapath, path-cache entry, the enumeration's two
// slices, the first growth of the path slice and what the three maps they
// go into need now and then — printed, and pinned so a per-open temporary
// cannot creep back in.
//
// cfd: the contending-flows notification path — predictive headers merged
// at congested routers, handed to destination ACKs and read by HandleAck —
// allocates nothing on a bursty cell.
func TestHotPathZeroAllocPRDRB(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 7})
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 350, Start: 0, End: Second}); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 800, Start: 0, End: 2 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Eng.Run(8 * Millisecond)

	t.Run("steady", func(t *testing.T) {
		primed := core.AggregateStats(s.Controllers)
		if primed.PathsOpened < 64 || primed.ReuseApplications == 0 {
			t.Fatalf("priming opened %d paths and re-applied %d solutions; the overlay no longer congests the cell",
				primed.PathsOpened, primed.ReuseApplications)
		}
		avg := testing.AllocsPerRun(5, func() {
			runEvents(t, s.Eng, 20000)
		})
		after := core.AggregateStats(s.Controllers)
		if open, _ := core.OpenPathCounts(s.Controllers); open == 0 || after.AcksSeen-primed.AcksSeen < 5000 {
			t.Fatalf("measured window ended with %d open metapaths after %d ACKs; it no longer exercises multipath injection",
				open, after.AcksSeen-primed.AcksSeen)
		}
		if avg != 0 {
			t.Fatalf("pr-drb steady state allocates %.2f allocs per 20k events, want 0 (opened %d, saved %d, re-applied %d in the window)",
				avg, after.PathsOpened-primed.PathsOpened, after.PatternsSaved-primed.PatternsSaved,
				after.ReuseApplications-primed.ReuseApplications)
		}
	})

	t.Run("cold-open", func(t *testing.T) {
		// Node 0 sends to 0 under shuffle, so it has no metapath yet: every
		// run reports congestion toward one more destination.
		ctl, dst := s.Controllers[0], topology.NodeID(0)
		ack := &network.Packet{Type: network.AckPacket, Dst: 0, PathLatency: 50 * Microsecond}
		const runs = 40
		avg := testing.AllocsPerRun(runs, func() {
			dst++
			if ctl.PathCount(dst) != 1 {
				t.Fatalf("destination %d already has an open metapath", dst)
			}
			ack.Src = dst
			ctl.HandleAck(s.Eng, ack)
			if ctl.PathCount(dst) != 2 {
				t.Fatalf("congestion toward %d opened no path", dst)
			}
		})
		t.Logf("cold path-open: %.2f allocations (mean of %d destinations)", avg, runs)
		if avg > 5 {
			t.Fatalf("cold path-open allocates %.2f times, want <= 5", avg)
		}
	})

	t.Run("cfd", func(t *testing.T) {
		// The notification path on the paper's headline cell, shuffle bursts
		// at 600 Mbps: congested routers merge their contending flows into
		// data packets' predictive headers and the destinations hand the
		// headers to the ACKs. Every packet record owns its header storage,
		// so once eight bursts have warmed the pool none of it allocates.
		// The window cannot avoid the burst edges, where the controllers
		// save and re-apply solutions. Re-applying copies path states into
		// the metapath's own array, and refreshing a saved solution copies
		// into the solution's; only saving a new solution allocates, its
		// storage. Allocations are therefore counted per allocating
		// function, and SolutionDB.Save is the only one allowed.
		old := runtime.MemProfileRate
		runtime.MemProfileRate = 1
		defer func() { runtime.MemProfileRate = old }()
		s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 7})
		if _, err := s.InstallBursts(BurstSpec{
			Pattern: "shuffle", RateMbps: 600, Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 40,
		}); err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, nic := range s.Net.NICs {
			nic.Source = ackCounter{nic.Source, &flagged}
		}
		s.Eng.Run(8*550*Microsecond + 100*Microsecond)
		flagged = 0
		stored := func() (n int) {
			for _, c := range s.Controllers {
				n += c.DB().Size()
			}
			return n
		}
		created := -stored() // solutions first saved in the window; none is evicted at this size
		before := allocsByFunction()
		runEvents(t, s.Eng, 20000)
		after := allocsByFunction()
		created += stored()
		if flagged < 100 {
			t.Fatalf("the measured window delivered %d ACKs carrying contending flows; it no longer exercises the notification path", flagged)
		}
		for fn, n := range after {
			if n -= before[fn]; n == 0 {
				continue
			}
			switch fn {
			case "prdrb/internal/core.(*SolutionDB).Save":
				// A new solution is its record, signature and path
				// states, plus now and then a longer per-destination list.
				t.Logf("%s: %d allocations for %d new solutions", fn, n, created)
				if n > 4*int64(created) {
					t.Errorf("%s allocates %d times for %d new solutions, want <= 4 each: refreshing a solution must reuse its storage", fn, n, created)
				}
			default:
				t.Errorf("%s allocates %d times in 20k events with %d flagged ACKs, want 0", fn, n, flagged)
			}
		}
	})
}

// ackCounter wraps a NIC's source controller and counts the ACKs it
// handles that carry contending flows.
type ackCounter struct {
	network.SourceController
	flagged *int
}

func (a ackCounter) HandleAck(e *sim.Engine, ack *network.Packet) {
	a.SourceController.HandleAck(e, ack)
	if len(ack.Contending()) > 0 {
		*a.flagged++
	}
}

// allocsByFunction returns the objects allocated so far by each function of
// this module, as the heap profile attributes them: to the innermost
// non-runtime frame, inlined calls included. Exact only while
// runtime.MemProfileRate is 1.
func allocsByFunction() map[string]int64 {
	runtime.GC() // publish the profile: it trails the last two cycles
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[string]int64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasPrefix(f.Function, "prdrb/") {
					out[f.Function] += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// TestEventsPerHop pins how many events a delivered packet costs on a
// light and on a saturated ft-4-3 cell, exactly: a hop is one deliver
// event, plus a link-free event only when a packet was waiting for the
// link, plus the source's injection events. An event creeping back onto
// the hop moves these counts (before link-free events were materialised
// lazily the same cells executed 3814 and 29641 events).
func TestEventsPerHop(t *testing.T) {
	for _, c := range []struct {
		name         string
		rateMbps     float64
		events, pkts uint64
	}{
		{"light", 100, 2162, 314},
		{"saturated", 800, 19547, 2497},
	} {
		s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyAdaptive, Seed: 7})
		if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: c.rateMbps, Start: 0, End: 400 * Microsecond}); err != nil {
			t.Fatal(err)
		}
		res := s.Execute(Second)
		if got := s.Processed(); got != c.events || uint64(res.DeliveredPkts) != c.pkts {
			t.Errorf("%s: %d events for %d packets (%.3f per packet), want %d for %d (%.3f)",
				c.name, got, res.DeliveredPkts, float64(got)/float64(res.DeliveredPkts),
				c.events, c.pkts, float64(c.events)/float64(c.pkts))
		}
	}
}

// runEvents executes at least n events, one timestamp at a time, and fails
// if the engine drains first.
func runEvents(t *testing.T, e *sim.Engine, n uint64) {
	for done := uint64(0); done < n; done += e.Run(e.NextEventTime() + 1) {
		if e.Len() == 0 {
			t.Fatal("engine drained mid-measurement")
		}
	}
}
