package prdrb

import (
	"testing"

	"prdrb/internal/network"
)

// eventBudget is one run's executed events split by network.EventKinds.
type eventBudget struct {
	pkts, processed uint64
	kinds           network.EventKinds // summed over shards
	rest            uint64             // processed minus credits and link-free events
}

func runEventBudget(t *testing.T, policy Policy, install func(*testing.T, *Sim) Time, shards int) eventBudget {
	t.Helper()
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: policy, Seed: 11, Shards: shards})
	end := install(t, s)
	res := s.Execute(end + Second)
	b := eventBudget{pkts: uint64(res.DeliveredPkts)}
	if g := s.Net.Group(); g != nil {
		b.processed = g.Processed()
	} else {
		b.processed = s.Eng.Processed
	}
	for _, k := range s.Net.EventKinds() {
		b.kinds.Handoffs += k.Handoffs
		b.kinds.RemoteCredits += k.RemoteCredits
		b.kinds.LocalCredits += k.LocalCredits
		b.kinds.LinkFree += k.LinkFree
	}
	b.rest = b.processed - b.kinds.RemoteCredits - b.kinds.LocalCredits - b.kinds.LinkFree
	return b
}

// TestShardedExtraEventsAreCreditReturns attributes the events a sharded
// run executes beyond its serial twin (the benchmark's
// sim.sharded_extra_events_pct: 8.96 against 7.89 events per packet on the
// 64-node uniform cell). Everything that moves packets costs the same
// number of events on both engines — a boundary hand-off replaces the deliver
// event one for one — and the whole difference is the boundary protocol's
// flow control: one credit-return event per hand-off, which a local link
// whose receiver has room never schedules, plus the link-free events that
// exist only because a packet waited for such a credit while its link was
// still busy.
func TestShardedExtraEventsAreCreditReturns(t *testing.T) {
	for _, c := range []struct {
		name    string
		policy  Policy
		install func(*testing.T, *Sim) Time
		// crossings bounds boundary hand-offs per delivered packet.
		minCross, maxCross float64
	}{
		// Uniform traffic over the two-way cut of ft-4-3: a packet crosses
		// it about once (1.07 in the ROADMAP's estimate).
		{"adaptive/uniform-saturated", PolicyAdaptive, seqUniform(800, 2*Millisecond), 1.0, 1.2},
		// Every data packet is answered by an ACK, which crosses too.
		{"pr-drb/bursts", PolicyPRDRB, seqBursts("shuffle"), 2.0, 3.0},
	} {
		t.Run(c.name, func(t *testing.T) {
			serial := runEventBudget(t, c.policy, c.install, 1)
			sharded := runEventBudget(t, c.policy, c.install, 2)
			t.Logf("serial  %+v", serial)
			t.Logf("sharded %+v", sharded)
			if serial.pkts != sharded.pkts || serial.pkts == 0 {
				t.Fatalf("delivered %d packets serial, %d sharded", serial.pkts, sharded.pkts)
			}
			if serial.kinds.Handoffs != 0 || serial.kinds.RemoteCredits != 0 {
				t.Errorf("the serial run counted boundary traffic: %+v", serial.kinds)
			}
			if sharded.kinds.RemoteCredits != sharded.kinds.Handoffs {
				t.Errorf("%d credit returns for %d hand-offs, want one each", sharded.kinds.RemoteCredits, sharded.kinds.Handoffs)
			}
			if per := float64(sharded.kinds.Handoffs) / float64(sharded.pkts); per < c.minCross || per > c.maxCross {
				t.Errorf("%.3f boundary crossings per delivered packet, want %.1f–%.1f", per, c.minCross, c.maxCross)
			}
			if sharded.rest != serial.rest {
				t.Errorf("events other than credits and link-free: %d sharded, %d serial, want equal", sharded.rest, serial.rest)
			}
			extra := sharded.processed - serial.processed
			credits := sharded.kinds.RemoteCredits + sharded.kinds.LocalCredits - serial.kinds.LocalCredits
			linkFree := sharded.kinds.LinkFree - serial.kinds.LinkFree // never negative here: credits only add waits
			if extra != credits+linkFree {
				t.Errorf("%d extra events, but %d credit returns and %d link-free events more", extra, credits, linkFree)
			}
			if linkFree > credits/5 {
				t.Errorf("link-free events (%d more) are not the small term next to credit returns (%d)", linkFree, credits)
			}
		})
	}
}
