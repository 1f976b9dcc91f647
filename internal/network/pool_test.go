package network

import (
	"reflect"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// freeList returns the shard's freelist, head first.
func freeList(sh *Shard) []*Packet {
	var out []*Packet
	for p := sh.pktFree; p != nil; p = p.qnext {
		out = append(out, p)
	}
	return out
}

// zeroedAtRest reports whether a pooled record is zero but for its
// freelist link and its cold record, itself zero but for the storage of
// its (empty) contending set.
func zeroedAtRest(p *Packet) bool {
	q := *p
	if c := q.cold; c != nil && !reflect.DeepEqual(*c, packetCold{contending: c.contending[:0]}) {
		return false
	}
	q.qnext, q.cold = nil, nil
	return reflect.DeepEqual(q, Packet{})
}

// TestPacketPoolReuseAndZeroing pins the freelist contract of pool.go:
// release returns the record zeroed but for its cold record, itself zeroed
// but for the storage of its contending set, which it keeps at length zero,
// the next acquire reuses it (LIFO) with that cold record and storage, and
// packet IDs keep advancing so a recycled record never repeats an identity.
func TestPacketPoolReuseAndZeroing(t *testing.T) {
	n := testNet(t, topology.NewMesh(2, 1), nil)

	p1 := n.Shards[0].newPacket()
	p1.Type = DataPacket
	p1.Src, p1.Dst = 0, 1
	p1.SizeBytes = 1024
	p1.CreatedAt = 42
	p1.Final = true
	p1.SetPredictiveHeader(3, []FlowKey{{Src: 0, Dst: 1}})
	p1.cold.queueNs, p1.cold.serNs = 5, 6
	cold, id1 := p1.cold, p1.ID

	n.Shards[0].releasePacket(p1)
	if got := len(freeList(n.Shards[0])); got != 1 || n.Shards[0].pktFreeN != 1 {
		t.Fatalf("freelist holds %d records (counted %d) after one release, want 1", got, n.Shards[0].pktFreeN)
	}
	if !zeroedAtRest(p1) {
		t.Fatalf("released packet not zeroed: %+v", *p1)
	}
	storage := &p1.cold.contending[:1][0]

	p2 := n.Shards[0].newPacket()
	if p2 != p1 {
		t.Fatalf("second acquire did not reuse the released record")
	}
	if p2.ID != id1+1 {
		t.Fatalf("recycled record got ID %d, want %d (IDs must not repeat)", p2.ID, id1+1)
	}
	if p2.SizeBytes != 0 || p2.Final || len(p2.Contending()) != 0 || p2.CreatedAt != 0 {
		t.Fatalf("recycled record carries stale fields: %+v", *p2)
	}
	if p2.cold != cold || cold.queueNs != 0 || cold.serNs != 0 {
		t.Fatalf("recycled record did not keep its zeroed cold record: %p %+v, want %p", p2.cold, *p2.cold, cold)
	}
	if p2.SetPredictiveHeader(0, []FlowKey{{Src: 1, Dst: 0}}); &p2.Contending()[0] != storage {
		t.Fatalf("recycled record did not keep its contending-set storage")
	}
}

// lossSpy is a SourceController that records every drop notification with a
// value snapshot taken at notification time, so the test can later prove
// the pointer was recycled into a different packet without the snapshot
// (the controller's view) ever being corrupted.
type lossSpy struct {
	dropped []*Packet
	snaps   []Packet
}

func (l *lossSpy) Name() string                          { return "loss-spy" }
func (l *lossSpy) PrepareInjection(*sim.Engine, *Packet) {}
func (l *lossSpy) HandleAck(*sim.Engine, *Packet)        {}
func (l *lossSpy) HandlePacketLoss(e *sim.Engine, p *Packet) {
	l.dropped = append(l.dropped, p)
	l.snaps = append(l.snaps, *p)
}

// TestDropReleasedPacketDoesNotAlias drives the PR-1 fault-drop release
// path: a link dies mid-flight, the in-flight packet is dropped and
// released, traffic resumes after repair and recycles the record. The
// dropped pointer must come back to the freelist exactly once (a double
// release would let one record live two lives at once), the whole freelist
// must be duplicate-free, and every parked record must be zeroed.
func TestDropReleasedPacketDoesNotAlias(t *testing.T) {
	n := testNet(t, topology.NewMesh(2, 1), nil)
	e := n.Eng
	spy := &lossSpy{}
	n.NICs[0].Source = spy

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

	if len(spy.dropped) == 0 {
		t.Fatalf("no drop observed; scenario no longer exercises the drop path")
	}
	// The run is drained: every packet ever acquired is back in the pool.
	free := freeList(n.Shards[0])
	if len(free) != n.Shards[0].pktFreeN {
		t.Fatalf("freelist holds %d records, counted %d", len(free), n.Shards[0].pktFreeN)
	}
	inPool := make(map[*Packet]int, len(free))
	for _, p := range free {
		inPool[p]++
	}
	for ptr, cnt := range inPool {
		if cnt != 1 {
			t.Fatalf("packet record %p parked %d times in the freelist (double release)", ptr, cnt)
		}
	}
	for i, ptr := range spy.dropped {
		if inPool[ptr] != 1 {
			t.Fatalf("dropped packet %d (ID %d) never returned to the pool", i, spy.snaps[i].ID)
		}
	}
	for _, p := range free {
		if !zeroedAtRest(p) {
			t.Fatalf("pooled record not zeroed at rest: %+v", *p)
		}
	}
	// The controller's snapshot was a copy, not a retained pointer: it must
	// still describe the dropped packet even though the record was reused.
	for i, s := range spy.snaps {
		if s.Src != 0 || s.Dst != 1 || s.Type != DataPacket {
			t.Fatalf("drop snapshot %d corrupted: %+v", i, s)
		}
	}
	if acc := n.Collector.Throughput.AcceptedPkts; acc+n.DroppedPkts() != 8 {
		t.Fatalf("accepted %d + dropped %d != 8 injected", acc, n.DroppedPkts())
	}
}

// TestPoolRecycleKeepsDeliveryIdentity floods enough packets through a
// 2-node wire that records recycle many times over, and checks per-packet
// delivery identity (size, latency ordering) survives: a stale alias
// anywhere in the port/NIC path would scramble delivered sizes or
// timestamps.
func TestPoolRecycleKeepsDeliveryIdentity(t *testing.T) {
	n := testNet(t, topology.NewMesh(2, 1), nil)
	e := n.Eng
	const msgs = 64
	got := 0
	n.NICs[1].OnMessage = func(_ *sim.Engine, src topology.NodeID, _ uint64, size int, _ uint8, _ uint32) {
		if src != 0 || size != 1024 {
			t.Errorf("delivery %d: got src=%d size=%d, want src=0 size=1024", got, src, size)
		}
		got++
	}
	// 1024 B at 2 Gbps serializes in ~4us; 10us spacing keeps the wire
	// drained between messages so the pool footprint stays at the
	// steady-state minimum (one data packet + its ACK in circulation).
	for i := 0; i < msgs; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		e.Schedule(at, func(e *sim.Engine) { n.NICs[0].Send(e, 1, 1024, MPISend, 0) })
	}
	e.RunAll()
	if got != msgs {
		t.Fatalf("delivered %d/%d messages", got, msgs)
	}
	// Steady-state wire traffic with one packet in flight plus one queued
	// must not grow the pool without bound.
	if k := len(freeList(n.Shards[0])); k > 8 {
		t.Fatalf("pool grew to %d records for a serialized 2-node wire", k)
	}
}
