package network

import (
	"fmt"
	"sort"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// refTopContendingFlows is the Contending Flows Detection as first written
// — a byte tally per flow in a map, the flows above ContendShare sorted by
// (bytes descending, Src, Dst) and capped — kept as the oracle for the
// allocation-free ranking in port.go.
func refTopContendingFlows(o *outPort, departing *Packet) []FlowKey {
	counts := map[FlowKey]int{departing.Flow(): departing.SizeBytes}
	total := departing.SizeBytes
	for vc := range o.sh.net.numVC {
		if o.sh.net.isAckVC(vc) {
			continue
		}
		for _, p := range o.vcs[vc].pkts() {
			counts[p.Flow()] += p.SizeBytes
			total += p.SizeBytes
		}
	}
	type fc struct {
		f FlowKey
		b int
	}
	var ranked []fc
	for f, b := range counts {
		if float64(b) >= o.sh.net.Cfg.ContendShare*float64(total) {
			ranked = append(ranked, fc{f, b})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].b != ranked[j].b {
			return ranked[i].b > ranked[j].b
		}
		if ranked[i].f.Src != ranked[j].f.Src {
			return ranked[i].f.Src < ranked[j].f.Src
		}
		return ranked[i].f.Dst < ranked[j].f.Dst
	})
	if len(ranked) > o.sh.net.Cfg.MaxContending {
		ranked = ranked[:o.sh.net.Cfg.MaxContending]
	}
	var out []FlowKey
	for _, r := range ranked {
		out = append(out, r.f)
	}
	return out
}

// refMergeFlows is mergeFlows with its original set-based membership.
func refMergeFlows(have, add []FlowKey, max int) []FlowKey {
	seen := make(map[FlowKey]bool, len(have))
	for _, f := range have {
		seen[f] = true
	}
	for _, f := range add {
		if len(have) >= max {
			break
		}
		if !seen[f] {
			seen[f] = true
			have = append(have, f)
		}
	}
	return have
}

// pkts returns the queued packets in FIFO order.
func (q *vcQueue) pkts() []*Packet {
	var out []*Packet
	for p := q.head(); p != nil; p = q.next(p) {
		out = append(out, p)
	}
	return out
}

// fillPort replaces the port's queues with the given packets, one list per
// VC, behind the back of any tally the port keeps.
func fillPort(o *outPort, perVC [][]*Packet) {
	o.dropTally()
	for vc := range o.sh.net.numVC {
		o.vcs[vc] = vcQueue{}
		if vc < len(perVC) {
			for _, p := range perVC[vc] {
				o.vcs[vc].push(p)
			}
		}
	}
}

func cfdPkt(src, dst, size int) *Packet {
	return &Packet{Type: DataPacket, Src: topology.NodeID(src), Dst: topology.NodeID(dst), SizeBytes: size}
}

func TestContendingFlowsRanking(t *testing.T) {
	n := testNet(t, topology.NewTorus(4, 4), nil) // 8 VCs, two of them ACK
	o := &n.Routers[5].out[0]
	ackVC := n.vcIndex(ackClass, false)

	table := []struct {
		name      string
		share     float64
		max       int
		departing *Packet
		queued    [][]*Packet
		want      []FlowKey
	}{
		{"lone departing flow is reported", 0.10, 8, cfdPkt(1, 2, 1024), nil,
			[]FlowKey{{1, 2}}},
		{"bytes descending", 0.10, 8, cfdPkt(1, 2, 64),
			[][]*Packet{{cfdPkt(3, 4, 1024), cfdPkt(5, 6, 512)}, {cfdPkt(5, 6, 1024)}},
			[]FlowKey{{5, 6}, {3, 4}}},
		{"ties by source then destination", 0, 8, cfdPkt(9, 1, 512),
			[][]*Packet{{cfdPkt(2, 7, 512), cfdPkt(2, 3, 512)}, {cfdPkt(1, 8, 512)}},
			[]FlowKey{{1, 8}, {2, 3}, {2, 7}, {9, 1}}},
		{"share floor drops the small flow", 0.25, 8, cfdPkt(1, 2, 1024),
			[][]*Packet{{cfdPkt(3, 4, 1024), cfdPkt(5, 6, 64)}},
			[]FlowKey{{1, 2}, {3, 4}}},
		{"capacity cap keeps the heaviest", 0, 2, cfdPkt(1, 2, 100),
			[][]*Packet{{cfdPkt(3, 4, 300), cfdPkt(5, 6, 200), cfdPkt(7, 8, 400)}},
			[]FlowKey{{7, 8}, {3, 4}}},
		{"ACK channels do not count", 0.10, 8, cfdPkt(1, 2, 1024),
			func() [][]*Packet {
				q := make([][]*Packet, ackVC+1)
				q[ackVC] = []*Packet{cfdPkt(3, 4, 4096)}
				return q
			}(),
			[]FlowKey{{1, 2}}},
	}
	for _, c := range table {
		n.Cfg.ContendShare, n.Cfg.MaxContending = c.share, c.max
		fillPort(o, c.queued)
		got := o.topContendingFlows(c.departing)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if ref := refTopContendingFlows(o, c.departing); fmt.Sprint(ref) != fmt.Sprint(c.want) {
			t.Errorf("%s: the reference itself gives %v, want %v", c.name, ref, c.want)
		}
	}

	// Random ports against the reference, and the merge against its own.
	rng := sim.NewRNG(5)
	for trial := 0; trial < 3000; trial++ {
		n.Cfg.ContendShare = []float64{0, 0.05, 0.10, 0.34}[rng.Intn(4)]
		n.Cfg.MaxContending = 1 + rng.Intn(8)
		perVC := make([][]*Packet, n.numVC)
		for vc := range perVC {
			for k := rng.Intn(5); k > 0; k-- {
				perVC[vc] = append(perVC[vc], cfdPkt(rng.Intn(4), rng.Intn(4), 64<<uint(rng.Intn(5))))
			}
		}
		fillPort(o, perVC)
		dep := cfdPkt(rng.Intn(4), rng.Intn(4), 64<<uint(rng.Intn(5)))
		want := refTopContendingFlows(o, dep)
		got := o.topContendingFlows(dep)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (share %v, max %d): got %v, reference %v", trial, n.Cfg.ContendShare, n.Cfg.MaxContending, got, want)
		}
		var have []FlowKey
		for k := rng.Intn(4); k > 0; k-- {
			have = append(have, FlowKey{topology.NodeID(rng.Intn(4)), topology.NodeID(rng.Intn(4))})
		}
		max := 1 + rng.Intn(8)
		wantMerged := refMergeFlows(append([]FlowKey(nil), have...), got, max)
		if merged := mergeFlows(append([]FlowKey(nil), have...), got, max); fmt.Sprint(merged) != fmt.Sprint(wantMerged) {
			t.Fatalf("trial %d: mergeFlows(%v, %v, %d) = %v, reference %v", trial, have, got, max, merged, wantMerged)
		}
	}

	// The ranking itself allocates nothing once the shard scratch has grown.
	dep := cfdPkt(1, 2, 1024)
	if avg := testing.AllocsPerRun(100, func() { o.topContendingFlows(dep) }); avg != 0 {
		t.Errorf("topContendingFlows allocates %.1f times per call, want 0", avg)
	}
}

// TestContendingFlowsSaturatedPort pins the incremental tally on the regime
// it exists for (and, at the end, that a shallow port stays out of it): a
// port holding over 512 packets of over 60 flows, with packets entering
// (enqueue) and leaving (pump, one at a time: the test holds the link busy
// in between) between departures that rank. Every ranking must equal the
// reference's recount of the queues, and the tally must be discarded — and
// rebuilt by the next trigger — when a departure waits no longer than the
// threshold and when the data VCs drain.
func TestContendingFlowsSaturatedPort(t *testing.T) {
	n := testNet(t, topology.NewTorus(4, 4), func(c *Config) {
		c.GenerateAcks = true
		c.CongestionThreshold = 2 * sim.Microsecond
		c.ContendShare = 0.02
		c.MaxContending = 8
	})
	e := n.Eng
	o := &n.Routers[5].out[0]
	o.flags |= portBusy // nothing leaves on its own; depart opens the link
	rng := sim.NewRNG(77)
	flows := make(map[FlowKey]bool)
	newPkt := func() *Packet {
		p := cfdPkt(rng.Intn(16), 16+rng.Intn(5), 64<<uint(rng.Intn(5)))
		if rng.Intn(10) == 0 {
			p.Type = AckPacket
		}
		return p
	}
	dataQueued := func() (data int) {
		for vc := range n.numVC {
			if !n.isAckVC(vc) {
				data += len(o.vcs[vc].pkts())
			}
		}
		return data
	}
	for dataQueued() < 600 {
		p := newPkt()
		flows[p.Flow()] = true
		o.enqueue(e, p, rng.Intn(n.numVC))
	}
	if len(flows) < 60 {
		t.Fatalf("only %d flows queued", len(flows))
	}
	if o.tally() != nil {
		t.Fatal("a tally exists before any departure triggered one")
	}

	// depart lets pump send one packet that has waited wait (whichever VC
	// the arbiter picks: every head is back-dated) and checks what
	// monitorDeparture, called by pump, made of it.
	depart := func(wait sim.Time) {
		t.Helper()
		for vc := range n.numVC {
			if p := o.vcs[vc].head(); p != nil {
				p.enqueuedAt = e.Now() - wait
				if c := p.cold; c != nil {
					c.contending = c.contending[:0]
				}
			}
		}
		before := int(o.queued)
		o.flags &^= portBusy
		o.pump(e)
		pkt := o.inflight
		if !o.busy() || int(o.queued) != before-pkt.SizeBytes {
			t.Fatalf("pump sent nothing (queued %d -> %d)", before, o.queued)
		}
		deep := before-pkt.SizeBytes >= tallyDepth*n.Cfg.PacketBytes
		switch {
		case pkt.Type != DataPacket:
			if len(pkt.Contending()) != 0 {
				t.Fatalf("an ACK departure was given a predictive header")
			}
		case wait <= n.Cfg.CongestionThreshold:
			if o.tally() != nil || len(pkt.Contending()) != 0 {
				t.Fatalf("a departure within the threshold kept the tally (%v) or ranked (%v)", o.tally() != nil, pkt.Contending())
			}
		default:
			if got, want := fmt.Sprint(pkt.Contending()), fmt.Sprint(refTopContendingFlows(o, pkt)); got != want {
				t.Fatalf("ranking %v, recount of the queues gives %v", got, want)
			}
			if data := dataQueued(); deep && (o.tally() != nil) != (data > 0) {
				t.Fatalf("deep port: tally kept=%v with %d data packets queued", o.tally() != nil, data)
			}
		}
	}
	long, short := 10*sim.Microsecond, sim.Microsecond
	triggers := 0
	for step := 0; step < 4000; step++ {
		switch k := rng.Intn(10); {
		case k < 4:
			o.enqueue(e, newPkt(), rng.Intn(n.numVC))
		case k < 9:
			depart(long)
			triggers++
		default:
			depart(short) // ends the episode; the next long wait rebuilds
		}
		if dataQueued() < 520 {
			o.enqueue(e, newPkt(), rng.Intn(n.numVC))
			o.enqueue(e, newPkt(), rng.Intn(n.numVC))
		}
	}
	if data := dataQueued(); triggers < 1500 || data < 512 {
		t.Fatalf("%d ranking departures, %d data packets still queued: the port did not stay saturated", triggers, data)
	}
	// Drain: the last data packet out takes the tally with it.
	for o.nonEmpty != 0 {
		depart(long)
	}
	if o.tally() != nil {
		t.Fatal("the drained port still holds a tally")
	}
	if len(o.sh.tallyFree) != 1 || len(o.sh.tallyFree[0].at) != 0 || len(o.sh.tallyFree[0].flows) != 0 {
		t.Fatalf("the shard got back %d tallies, or a non-empty one", len(o.sh.tallyFree))
	}
	// A shallow port recounts and never takes a tally.
	for round := 0; round < 50; round++ {
		for k := 1 + rng.Intn(tallyDepth-2); k > 0; k-- {
			o.enqueue(e, newPkt(), rng.Intn(n.numVC))
		}
		for o.nonEmpty != 0 {
			depart(long)
			if o.tally() != nil {
				t.Fatalf("a port holding %d bytes took a tally", o.queued)
			}
		}
	}
}
