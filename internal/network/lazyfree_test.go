package network

import (
	"fmt"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Lazily materialised link-free events at port level. The system-level
// proof that nothing moves is TestSeqConservation in the root package;
// these pin the port's state machine at the corners a full run only
// crosses by chance: the reserved key's own instant, a link that dies while
// lazily busy, and the congestion signal read across a lapsed key.

// freeEvents lists the pending link-free events of port o as "at#seq".
func freeEvents(e *sim.Engine, o *outPort) []string {
	var out []string
	for _, ev := range e.PendingEvents() {
		if ev.Kind == portEvFree && ev.Arg == uint64(o.serEnd) && ev.Actor == fmt.Sprintf("%T", o) {
			out = append(out, fmt.Sprintf("%d#%d", ev.At, ev.Seq))
		}
	}
	return out
}

// lazyNet is a two-node mesh whose node 0 sends one packet at time zero:
// once its header is delivered (at cut + txExtra) the NIC link, o, has
// nothing more to send. setup schedules the rest of the scenario.
func lazyNet(t *testing.T, wheel bool, setup func(n *Network, o *outPort)) (*Network, *outPort) {
	t.Helper()
	n := testNet(t, topology.NewMesh(2, 1), func(c *Config) { c.GenerateAcks = false })
	if wheel {
		// testNet's engine is unused so far: switch it before any event.
		n.Eng.EnableWheel()
	}
	o := n.NICs[0].out
	n.Eng.Schedule(0, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 1024, MPISend, 0) })
	if setup != nil {
		setup(n, o)
	}
	return n, o
}

func TestLazyFreeReservesInsteadOfScheduling(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		n, o := lazyNet(t, wheel, nil)
		e := n.Eng
		e.Run(n.serHeader + o.txExtra() + 1)
		if !o.busy() || !o.lazyFree() || o.serEnd != n.serPacket {
			t.Fatalf("wheel=%v: after delivery busy=%v lazyFree=%v serEnd=%v, want a lazily busy link until %v",
				wheel, o.busy(), o.lazyFree(), o.serEnd, n.serPacket)
		}
		if evs := freeEvents(e, o); len(evs) != 0 {
			t.Fatalf("wheel=%v: link-free event %v scheduled with nothing to send", wheel, evs)
		}
		if o.freeSeq+1 > e.Seq() {
			t.Fatalf("wheel=%v: freeSeq %d was not taken from the counter (next %d)", wheel, o.freeSeq, e.Seq())
		}
		// The congestion signal counts the packet still on the wire...
		if got := o.load(); got != n.Cfg.PacketBytes {
			t.Fatalf("wheel=%v: load %d while serializing, want one nominal packet", wheel, got)
		}
		// ...and stops once the key has lapsed, which also settles the link.
		e.AdvanceTo(o.serEnd + 1)
		if got := o.load(); got != 0 || o.busy() || o.lazyFree() {
			t.Fatalf("wheel=%v: past serEnd load=%d busy=%v lazyFree=%v, want an idle link", wheel, got, o.busy(), o.lazyFree())
		}
	}
}

// A sender arriving at the reserved key's own instant is ordered by
// sequence number: ahead of the key the link is still busy and the event
// must be created in place; behind it the link is already free.
func TestLazyFreeAtItsOwnInstant(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		var aheadChecked, behindChecked bool
		n, o := lazyNet(t, wheel, func(n *Network, o *outPort) {
			// Scheduled during setup: its sequence number precedes freeSeq.
			n.Eng.Schedule(n.serPacket, func(e *sim.Engine) {
				want := fmt.Sprintf("%d#%d", o.serEnd, o.freeSeq)
				n.NICs[0].Send(e, 1, 1024, MPISend, 1)
				evs := freeEvents(e, o)
				if o.lazyFree() || !o.busy() || len(evs) != 1 || evs[0] != want || o.txBytes != 1024 {
					t.Errorf("wheel=%v ahead of the key: lazyFree=%v busy=%v events=%v txBytes=%d, want the event %s and the packet waiting",
						wheel, o.lazyFree(), o.busy(), evs, o.txBytes, want)
				}
				aheadChecked = true
			})
		})
		n.Eng.RunAll()
		if !aheadChecked || o.txBytes != 2048 || o.busyNs != 2*n.serPacket {
			t.Fatalf("wheel=%v: second packet did not leave at the first one's serEnd: txBytes=%d busyNs=%v", wheel, o.txBytes, o.busyNs)
		}

		n, o = lazyNet(t, wheel, func(n *Network, o *outPort) {
			// Scheduled after the delivery reserved freeSeq: follows it.
			n.Eng.Schedule(n.serHeader+o.txExtra()+1, func(e *sim.Engine) {
				e.Schedule(n.serPacket, func(e *sim.Engine) {
					if !o.lazyFree() {
						t.Errorf("wheel=%v: link settled before anyone asked", wheel)
					}
					n.NICs[0].Send(e, 1, 1024, MPISend, 1)
					if o.lazyFree() || !o.busy() || o.txBytes != 2048 || o.serEnd != e.Now()+n.serPacket || len(freeEvents(e, o)) != 0 {
						t.Errorf("wheel=%v behind the key: lazyFree=%v busy=%v txBytes=%d serEnd=%v, want the packet on the wire at once",
							wheel, o.lazyFree(), o.busy(), o.txBytes, o.serEnd)
					}
					behindChecked = true
				})
			})
		})
		n.Eng.RunAll()
		if !behindChecked {
			t.Fatalf("wheel=%v: behind-the-key probe never ran", wheel)
		}
	}
}

// A link that goes down while lazily busy keeps its queue frozen through
// the lapsed key and resumes at repair — or, repaired before the key, at
// the key. The link is router 0's port toward router 1 at half rate, so a
// second packet (in flight from the NIC when the link dies) reaches its
// queue while the first one's tail is still on the wire.
func TestLazyFreeAcrossLinkFailure(t *testing.T) {
	const (
		hop    = 256 + 60   // header cut-through + link and routing delay
		key    = hop + 8192 // the router link's serEnd for the first packet
		arrive = 4096 + hop // the second packet leaves the NIC behind the first
	)
	for _, tc := range []struct {
		name             string
		repairAt, leaves sim.Time
	}{
		{"repair after the key", 9000, 9000},
		{"repair before the key", 6000, key},
	} {
		var o *outPort
		n, _ := lazyNet(t, true, func(n *Network, _ *outPort) {
			e := n.Eng
			o = &n.Routers[0].out[0]
			if err := n.DegradeLink(0, 0, 0.5); err != nil {
				t.Fatal(err)
			}
			e.Schedule(100, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 1024, MPISend, 1) })
			e.Schedule(arrive-100, func(e *sim.Engine) {
				if !o.lazyFree() || o.serEnd != key {
					t.Errorf("%s: lazyFree=%v serEnd=%v when the link fails, want a lazily busy link until %d",
						tc.name, o.lazyFree(), o.serEnd, key)
				}
				if err := n.FailLink(0, 0); err != nil {
					t.Error(err)
				}
			})
			e.Schedule(arrive+1, func(e *sim.Engine) {
				if o.queued != 1024 || !o.lazyFree() || len(freeEvents(e, o)) != 0 {
					t.Errorf("%s: queued=%d lazyFree=%v events=%v, want the packet frozen on the dead port and no event",
						tc.name, o.queued, o.lazyFree(), freeEvents(e, o))
				}
			})
			e.Schedule(tc.repairAt, func(e *sim.Engine) {
				if err := n.RestoreLink(0, 0); err != nil {
					t.Error(err)
				}
			})
		})
		if n.serPacket != 4096 || n.serHeader+o.txExtra() != hop {
			t.Fatalf("test timings assume a 4096 ns packet and a %d ns hop, have %v and %v", hop, n.serPacket, n.serHeader+o.txExtra())
		}
		n.Eng.RunAll()
		if o.txBytes != 2048 || o.serEnd != tc.leaves+8192 {
			t.Errorf("%s: queued packet left at %v (txBytes %d), want %v",
				tc.name, o.serEnd-8192, o.txBytes, tc.leaves)
		}
	}
}
