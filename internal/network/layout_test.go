package network

import (
	"maps"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"prdrb/internal/metrics"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Port-state layout: the intrusive VC FIFO against a slice-backed
// reference, the record sizes the layout is built around, and what
// building a fabric allocates.

// TestVCQueueMatchesSlice drives random pushes and pops over a port's VCs
// and a slice-backed reference FIFO per VC side by side. After every
// operation each VC must hold the reference's packets in order with its
// byte count, the list must be circular — the tail is the reference's last
// packet and links back to its first — and both CFD counts — the
// shallow port's recount and the deep port's incremental tally — must
// equal a tally of the reference.
func TestVCQueueMatchesSlice(t *testing.T) {
	n := testNet(t, topology.NewTorus(4, 4), nil) // 8 VCs, two of them ACK
	o := &n.Routers[5].out[0]
	ref := make([][]*Packet, n.numVC)
	tally := o.buildTally()
	rng := sim.NewRNG(11)
	check := func(step int, dep *Packet) {
		t.Helper()
		want := map[FlowKey]int{}
		wantTotal := 0
		for vc := range ref {
			q := &o.vcs[vc]
			if got := q.pkts(); !slices.Equal(got, ref[vc]) {
				t.Fatalf("step %d vc %d: queue %v, reference %v", step, vc, got, ref[vc])
			}
			bytes := 0
			for _, p := range ref[vc] {
				bytes += p.SizeBytes
				if !n.isAckVC(vc) {
					want[p.Flow()] += p.SizeBytes
					wantTotal += p.SizeBytes
				}
			}
			if q.bytes() != bytes {
				t.Fatalf("step %d vc %d: %d bytes, reference %d", step, vc, q.bytes(), bytes)
			}
			if k := len(ref[vc]); (k == 0) != (q.tail == nil) || k > 0 && (q.tail != ref[vc][k-1] || q.tail.qnext != ref[vc][0]) {
				t.Fatalf("step %d vc %d: tail %p does not close the reference's %d packets into a ring", step, vc, q.tail, k)
			}
		}
		got := map[FlowKey]int{}
		for _, fb := range tally.flows {
			got[fb.f] = fb.b
		}
		if !maps.Equal(got, want) || tally.total != wantTotal {
			t.Fatalf("step %d: tally %v (%d B), reference %v (%d B)", step, got, tally.total, want, wantTotal)
		}
		want[dep.Flow()] += dep.SizeBytes
		flows, total := o.recountFlows(dep)
		got = map[FlowKey]int{}
		for _, fb := range flows {
			got[fb.f] = fb.b
		}
		if !maps.Equal(got, want) || total != wantTotal+dep.SizeBytes {
			t.Fatalf("step %d: recount %v (%d B), reference %v (%d B)", step, got, total, want, wantTotal+dep.SizeBytes)
		}
	}
	for step := 0; step < 5000; step++ {
		vc := rng.Intn(n.numVC)
		if rng.Intn(5) < 3 || len(ref[vc]) == 0 {
			p := cfdPkt(rng.Intn(6), 6+rng.Intn(6), 64<<uint(rng.Intn(5)))
			o.vcs[vc].push(p)
			ref[vc] = append(ref[vc], p)
			if !n.isAckVC(vc) {
				tally.add(p)
			}
		} else {
			p := o.vcs[vc].pop()
			if p != ref[vc][0] || p.qnext != nil {
				t.Fatalf("step %d vc %d: popped %p (linked to %p), reference head %p", step, vc, p, p.qnext, ref[vc][0])
			}
			ref[vc] = ref[vc][1:]
			if !n.isAckVC(vc) {
				tally.remove(p)
			}
		}
		check(step, cfdPkt(rng.Intn(6), 6+rng.Intn(6), 1024))
	}
}

// TestLayoutSizes pins the record sizes the port layout is sized around:
// a Packet stays in the 128-byte size class — whose objects are 128-aligned,
// so its first 64 bytes are one cache line, holding what the queues, the
// routing decision and the VC choice read every hop — and ports × VCs, the
// largest state of a 4096-node fabric, stays at 96 bytes a port plus one
// word a VC.
func TestLayoutSizes(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s <= 112 || s > 128 {
		t.Errorf("Packet is %d bytes, want the 128-byte size class (113 to 128)", s)
	}
	var p Packet
	for _, f := range []struct {
		name       string
		off, width uintptr
	}{
		{"qnext", unsafe.Offsetof(p.qnext), unsafe.Sizeof(p.qnext)},
		{"Waypoints", unsafe.Offsetof(p.Waypoints), unsafe.Sizeof(p.Waypoints)},
		{"Dst", unsafe.Offsetof(p.Dst), unsafe.Sizeof(p.Dst)},
		{"SizeBytes", unsafe.Offsetof(p.SizeBytes), unsafe.Sizeof(p.SizeBytes)},
		{"enqueuedAt", unsafe.Offsetof(p.enqueuedAt), unsafe.Sizeof(p.enqueuedAt)},
		{"qcum", unsafe.Offsetof(p.qcum), unsafe.Sizeof(p.qcum)},
		{"HeaderIdx", unsafe.Offsetof(p.HeaderIdx), unsafe.Sizeof(p.HeaderIdx)},
		{"Type", unsafe.Offsetof(p.Type), unsafe.Sizeof(p.Type)},
		{"lastClass", unsafe.Offsetof(p.lastClass), unsafe.Sizeof(p.lastClass)},
		{"curDim", unsafe.Offsetof(p.curDim), unsafe.Sizeof(p.curDim)},
	} {
		if f.off+f.width > 64 {
			t.Errorf("Packet.%s spans bytes %d to %d, want it in the first 64", f.name, f.off, f.off+f.width)
		}
	}
	if s := unsafe.Sizeof(outPort{}); s > 96 {
		t.Errorf("outPort is %d bytes, want at most 96", s)
	}
	if s := unsafe.Sizeof(vcQueue{}); s != 8 {
		t.Errorf("vcQueue is %d bytes, want 8", s)
	}
	// A router keeps no NextHop row: the topologies compute it in closed
	// form, and only the MinimalPorts memo is per destination router.
	if s := unsafe.Sizeof(Router{}); s > 120 {
		t.Errorf("Router is %d bytes, want at most 120", s)
	}
}

// TestVCQueueBytes checks a queue's byte count, read through its packets'
// stamps, against a running sum over random pushes and pops: once with
// packet sizes the fabric uses, and once with sizes of up to 1 GiB in a
// queue that is never emptied, so the stamps wrap past 2^32 many times
// while the queue holds less than 4 GiB.
func TestVCQueueBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxLog  int  // sizes are 1 << [0, maxLog) bytes plus up to 63
		minKeep int  // pops leave at least this many packets queued
		maxHeld int  // pushes keep the queue at most this deep
		wrap    bool // the stamps must wrap
	}{
		{"fabric", 11, 0, 64, false},
		{"wrap", 31, 1, 3, true},
	} {
		var q vcQueue
		var held []*Packet
		sum, wraps := 0, 0
		rng := sim.NewRNG(33)
		for step := 0; step < 20000; step++ {
			if len(held) < tc.maxHeld && (len(held) <= tc.minKeep || rng.Intn(2) == 0) {
				p := &Packet{SizeBytes: 1<<uint(rng.Intn(tc.maxLog)) + rng.Intn(64)}
				if q.tail != nil && q.tail.qcum+uint32(p.SizeBytes) < q.tail.qcum {
					wraps++
				}
				q.push(p)
				held = append(held, p)
				sum += p.SizeBytes
			} else {
				p := q.pop()
				if p != held[0] {
					t.Fatalf("%s step %d: popped %p, want %p", tc.name, step, p, held[0])
				}
				held = held[1:]
				sum -= p.SizeBytes
			}
			if got := q.bytes(); got != sum {
				t.Fatalf("%s step %d: bytes() = %d, running sum %d over %d packets", tc.name, step, got, sum, len(held))
			}
		}
		if tc.wrap != (wraps > 0) {
			t.Fatalf("%s: the stamps wrapped %d times", tc.name, wraps)
		}
	}
}

// TestFitsMatchesFree: the admission test that reads the port's queued total
// first gives free's answer on random queue states, on both sides of the
// shortcut.
func TestFitsMatchesFree(t *testing.T) {
	n := testNet(t, topology.NewTorus(4, 4), nil)
	o := &n.Routers[5].out[0]
	vcCap := n.vcCap
	rng := sim.NewRNG(45)
	var short, long int
	for trial := 0; trial < 5000; trial++ {
		// Half the states hold bytes in the asked VC alone, where the
		// shortcut's bound is tight.
		vc, alone := rng.Intn(n.numVC), rng.Intn(2) == 0
		perVC := make([][]*Packet, n.numVC)
		queued := 0
		for v := range perVC {
			for k := rng.Intn(4); k > 0 && (!alone || v == vc); k-- {
				p := &Packet{SizeBytes: 1 + rng.Intn(vcCap/2)}
				perVC[v] = append(perVC[v], p)
				queued += p.SizeBytes
			}
		}
		fillPort(o, perVC)
		o.queued = int32(queued)
		// Sizes at random and within a byte of both edges: the shortcut's
		// (vcCap - queued) and free's.
		size := 1 + rng.Intn(vcCap)
		switch rng.Intn(3) {
		case 1:
			size = max(1, vcCap-queued+rng.Intn(3)-1)
		case 2:
			size = max(1, o.free(vc)+rng.Intn(3)-1)
		}
		if queued+size <= vcCap {
			short++
		} else {
			long++
		}
		if got, want := o.fits(vc, size), o.free(vc) >= size; got != want {
			t.Fatalf("trial %d: fits(%d, %d) = %v with %d queued, free %d", trial, vc, size, got, queued, o.free(vc))
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("the shortcut was taken %d times and skipped %d times; want both", short, long)
	}
}

// ladderRow is one fabric of TestBuildBytesLadder.
type ladderRow struct {
	routers, ports, vcs int
	bytes, objects      uint64
}

// buildLadderRow measures the heap bytes and objects building the fabric
// spec on the given number of shards allocates (its topology and
// partition made beforehand).
func buildLadderRow(t *testing.T, spec string, shards int) ladderRow {
	t.Helper()
	topo, err := topology.ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	var group *sim.ShardGroup
	var assign []int
	if shards > 1 {
		if assign, err = topology.Partition(topo, shards); err != nil {
			t.Fatal(err)
		}
		group = sim.NewShardGroup(shards, cfg.Lookahead())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var n *Network
	if group == nil {
		n, err = New(eng, topo, cfg, detPolicy{}, nil)
	} else {
		n, err = NewSharded(group, topo, cfg, detPolicy{}, make([]*metrics.Collector, shards), make([]*telemetry.Tracer, shards), assign)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	r := ladderRow{routers: len(n.Routers), ports: len(n.NICs), vcs: n.numVC,
		bytes: after.TotalAlloc - before.TotalAlloc, objects: after.Mallocs - before.Mallocs}
	for _, rt := range n.Routers {
		r.ports += len(rt.out)
	}
	return r
}

// TestBuildBytesLadder builds dragonflies and fat trees of about 64, 256,
// 1024 and 4096 nodes, serial and on two shards, and pins what building
// allocates: per port (router and NIC ports; the routers' and NICs' own
// records included) at most 136 bytes plus 8 per VC at every size, plus
// 32 KiB per shard of fixed cost and measurement noise that only small
// fabrics notice (so the 4096-node dragonfly stays under 300 bytes a
// port), and a number of objects that depends on the shard count alone —
// every port, VC queue, router and NIC comes from a slab. With -v it
// prints the table.
func TestBuildBytesLadder(t *testing.T) {
	t.Logf("%-13s %6s %7s %6s %4s %9s %7s %7s", "fabric", "shards", "routers", "ports", "vcs", "bytes", "B/port", "objects")
	for _, spec := range []string{
		"df-4-8-2-2", "df-8-8-4-4", "df-8-32-4-4", "df-16-32-8-8",
		"ft-4-3", "ft-4-4", "ft-4-5", "ft-4-6",
	} {
		for _, shards := range []int{1, 2} {
			r := buildLadderRow(t, spec, shards)
			perPort := float64(r.bytes) / float64(r.ports)
			t.Logf("%-13s %6d %7d %6d %4d %9d %7.1f %7d", spec, shards, r.routers, r.ports, r.vcs, r.bytes, perPort, r.objects)
			if budget := r.ports*(136+8*r.vcs) + 32<<10*shards; r.bytes > uint64(budget) {
				t.Errorf("%s on %d shards: %d bytes for %d ports, budget %d", spec, shards, r.bytes, r.ports, budget)
			}
			if budget := 16 + 8*shards; r.objects > uint64(budget) {
				t.Errorf("%s on %d shards: %d objects for %d routers and %d ports, budget %d",
					spec, shards, r.objects, r.routers, r.ports, budget)
			}
		}
	}
}
