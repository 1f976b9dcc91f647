package trace

import (
	"strings"
	"testing"
	"unsafe"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

type detPolicy struct{}

func (detPolicy) Name() string { return "det" }
func (detPolicy) OutputPort(r *network.Router, pkt *network.Packet) int {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target)
	}
	return r.Net().Topo.NextHop(r.ID, pkt.Dst)
}

func newNet(t *testing.T, terminalsWanted int) *network.Network {
	t.Helper()
	var topo topology.Topology
	switch {
	case terminalsWanted <= 16:
		topo = topology.NewMesh(4, 4)
	case terminalsWanted <= 64:
		topo = topology.NewMesh(8, 8)
	default:
		t.Fatalf("test wants %d terminals", terminalsWanted)
	}
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(topo.NumTerminals(), topo.NumRouters(), 0)
	return network.MustNew(eng, topo, cfg, detPolicy{}, col)
}

func runReplay(t *testing.T, net *network.Network, tr *Trace) *Replay {
	t.Helper()
	rep, err := NewReplay(net, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	net.Eng.RunAll()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestPingPong(t *testing.T) {
	b := NewBuilder("pingpong", 2)
	b.Send(0, 1, 4096)
	b.Recv(1, 0)
	b.Send(1, 0, 4096)
	b.Recv(0, 1)
	net := newNet(t, 2)
	rep := runReplay(t, net, b.Build())
	if !rep.Finished() {
		t.Fatal("replay not finished")
	}
	if rep.ExecutionTime() <= 0 {
		t.Fatal("zero execution time")
	}
}

func TestComputeDelaysExecution(t *testing.T) {
	mk := func(compute sim.Time) sim.Time {
		b := NewBuilder("c", 2)
		b.Compute(0, compute)
		b.Send(0, 1, 1024)
		b.Recv(1, 0)
		net := newNet(t, 2)
		rep, err := NewReplay(net, b.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rep.Start(0)
		net.Eng.RunAll()
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return rep.ExecutionTime()
	}
	short, long := mk(0), mk(500*sim.Microsecond)
	if long < short+500*sim.Microsecond {
		t.Fatalf("compute not reflected: short=%v long=%v", short, long)
	}
}

func TestBlockingSendWaitsForDelivery(t *testing.T) {
	// Rank 0 sends a large message then records its local finish time; a
	// blocking send must not finish before the message could physically
	// transit the network.
	b := NewBuilder("rendezvous", 2)
	b.Send(0, 1, 64*1024)
	b.Recv(1, 0)
	net := newNet(t, 2)
	rep := runReplay(t, net, b.Build())
	// 64 KiB at 2 Gbps is 262 us of serialization at the source link; the
	// final packet's header may cut through a few us early.
	if rep.ExecutionTime() < 250*sim.Microsecond {
		t.Fatalf("blocking send finished in %v, faster than the wire allows", rep.ExecutionTime())
	}
}

func TestIsendOverlap(t *testing.T) {
	// A bidirectional exchange overlapped with Isend/Irecv completes in
	// about one transfer time (the two directions use distinct link
	// halves); the sequential version needs two.
	mkSequential := func() sim.Time {
		b := NewBuilder("seq", 2)
		b.Send(0, 1, 32*1024)
		b.Recv(1, 0)
		b.Send(1, 0, 32*1024)
		b.Recv(0, 1)
		net := newNet(t, 2)
		return runReplay(t, net, b.Build()).ExecutionTime()
	}
	mkOverlap := func() sim.Time {
		b := NewBuilder("ovl", 2)
		b.Sendrecv(0, 1, 1, 32*1024)
		b.Sendrecv(1, 0, 0, 32*1024)
		net := newNet(t, 2)
		return runReplay(t, net, b.Build()).ExecutionTime()
	}
	seq, ovl := mkSequential(), mkOverlap()
	if float64(ovl) > 0.7*float64(seq) {
		t.Fatalf("no overlap benefit: sequential=%v overlapped=%v", seq, ovl)
	}
}

func TestOutOfOrderArrivalBuffered(t *testing.T) {
	// Rank 1 receives from 2 first, then from 0, while 0's message is sent
	// first — eager buffering must hold 0's message until its Recv posts.
	b := NewBuilder("ooo", 3)
	b.Send(0, 1, 1024)
	b.Compute(2, 200*sim.Microsecond)
	b.Send(2, 1, 1024)
	b.Recv(1, 2)
	b.Recv(1, 0)
	net := newNet(t, 3)
	rep := runReplay(t, net, b.Build())
	if !rep.Finished() {
		t.Fatal("out-of-order matching deadlocked")
	}
}

func TestWaitRetiresOldestFirst(t *testing.T) {
	b := NewBuilder("wait-order", 2)
	b.IrecvQuiet(1, 0)
	b.IrecvQuiet(1, 0)
	b.Wait(1)
	b.Wait(1)
	b.Send(0, 1, 1024)
	b.Send(0, 1, 1024)
	net := newNet(t, 2)
	rep := runReplay(t, net, b.Build())
	if !rep.Finished() {
		t.Fatal("irecv/wait pairing failed")
	}
}

func TestBcastReachesEveryRank(t *testing.T) {
	const ranks = 8
	b := NewBuilder("bcast", ranks)
	b.Bcast(2, 2048)
	net := newNet(t, ranks)
	rep := runReplay(t, net, b.Build())
	if !rep.Finished() {
		t.Fatal("bcast deadlocked")
	}
	// Binomial tree over 8 ranks: 7 point-to-point transfers.
	if got := net.Collector.Throughput.AcceptedPkts; got < 7*2 { // 2048B = 2 pkts
		t.Fatalf("bcast moved only %d packets", got)
	}
}

func TestReduceCompletes(t *testing.T) {
	b := NewBuilder("reduce", 8)
	b.Reduce(0, 1024)
	net := newNet(t, 8)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("reduce deadlocked")
	}
}

func TestAllreducePowerOfTwo(t *testing.T) {
	b := NewBuilder("allreduce", 8)
	b.Allreduce(1024)
	net := newNet(t, 8)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("recursive-doubling allreduce deadlocked")
	}
	// log2(8)=3 rounds x 8 ranks, one message each direction = 24 messages.
	if got := net.Collector.Throughput.AcceptedPkts; got != 24 {
		t.Fatalf("allreduce moved %d packets, want 24", got)
	}
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	b := NewBuilder("allreduce6", 6)
	b.Allreduce(512)
	net := newNet(t, 6)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("fallback allreduce deadlocked")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Rank 0 computes 300us before the barrier; every rank's finish time
	// must be >= that.
	const ranks = 4
	b := NewBuilder("barrier", ranks)
	b.Compute(0, 300*sim.Microsecond)
	b.Barrier()
	net := newNet(t, ranks)
	rep := runReplay(t, net, b.Build())
	if rep.ExecutionTime() < 300*sim.Microsecond {
		t.Fatalf("barrier did not hold ranks: %v", rep.ExecutionTime())
	}
}

func TestSendrecvRing(t *testing.T) {
	const ranks = 8
	b := NewBuilder("ring", ranks)
	for r := 0; r < ranks; r++ {
		b.Sendrecv(r, (r+1)%ranks, (r+ranks-1)%ranks, 4096)
	}
	net := newNet(t, ranks)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("sendrecv ring deadlocked")
	}
}

func TestCallMixAccounting(t *testing.T) {
	b := NewBuilder("mix", 4)
	b.Send(0, 1, 10)
	b.Recv(1, 0)
	b.Allreduce(100)
	tr := b.Build()
	if tr.CallMix[network.MPISend] != 1 || tr.CallMix[network.MPIRecv] != 1 {
		t.Fatalf("p2p call mix wrong: %v", tr.CallMix)
	}
	if tr.CallMix[network.MPIAllreduce] != 4 {
		t.Fatalf("allreduce counted %d, want 4 (one per rank)", tr.CallMix[network.MPIAllreduce])
	}
	if share := tr.CallShare(network.MPIAllreduce); share != 4.0/6.0 {
		t.Fatalf("CallShare = %v", share)
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := NewBuilder("deadlock", 2)
	b.Recv(0, 1) // nobody ever sends
	net := newNet(t, 2)
	rep, err := NewReplay(net, b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	net.Eng.RunAll()
	if rep.Err() == nil {
		t.Fatal("stuck rank not reported")
	}
}

func TestCustomMapping(t *testing.T) {
	b := NewBuilder("mapped", 2)
	b.Send(0, 1, 1024)
	b.Recv(1, 0)
	net := newNet(t, 16)
	// Place rank 0 on node 5 and rank 1 on node 10.
	rep, err := NewReplay(net, b.Build(), []topology.NodeID{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	net.Eng.RunAll()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if net.Collector.Latency.Dst(10) == 0 {
		t.Fatal("mapped traffic did not reach node 10")
	}
}

func TestMappingValidation(t *testing.T) {
	b := NewBuilder("x", 2)
	b.Send(0, 1, 1)
	b.Recv(1, 0)
	net := newNet(t, 16)
	if _, err := NewReplay(net, b.Build(), []topology.NodeID{1}); err == nil {
		t.Fatal("short mapping accepted")
	}
	big := NewBuilder("big", 2)
	big.Send(0, 1, 1)
	big.Recv(1, 0)
	small := newNet(t, 16)
	tr := big.Build()
	tr.Ranks = 100
	if _, err := NewReplay(small, tr, nil); err == nil {
		t.Fatal("oversized trace accepted")
	}
}

// A trace the parser accepts can still name ranks that do not exist, send
// to itself or run time backwards; NewReplay must say so, naming rank and
// pc, where each of these used to panic inside the run.
func TestReplayRejectsBadTrace(t *testing.T) {
	for _, c := range []struct{ events, want string }{
		{"s 99 10 1", "rank 0 pc 1: send peer 99 out of range"},
		{"s -1 10 1", "rank 0 pc 1: send peer -1 out of range"},
		{"q 2 1", "rank 0 pc 1: irecv peer 2 out of range"},
		{"s 0 10 1", "rank 0 pc 1: send to itself"},
		{"r 0 1", "rank 0 pc 1: recv to itself"},
		{"c -5", "rank 0 pc 1: negative compute duration"},
		{"c 9223372036854775807", "rank 0 pc 1: compute time adds up"},
		{"i 1 -8 1", "rank 0 pc 1: message size -8 out of range"},
		{"s 1 9223372036854775807 1", "rank 0 pc 1: message size"},
	} {
		tr, err := ReadTrace(strings.NewReader("prdrb-trace 1\nranks 2\nrank 0\nc 7\n" + c.events + "\n"))
		if err != nil {
			t.Fatalf("%q: %v", c.events, err)
		}
		_, err = NewReplay(newNet(t, 2), tr, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: NewReplay error %v, want one containing %q", c.events, err, c.want)
		}
	}
	b := NewBuilder("hand-built", 2)
	b.Compute(0, 5)
	tr := b.Build()
	tr.appendRaw(0, 42)
	if _, err := NewReplay(newNet(t, 2), tr, nil); err == nil || !strings.Contains(err.Error(), "unknown op 42") {
		t.Errorf("unknown op: NewReplay error %v", err)
	}
	// A mapping must put every rank on a terminal of its own.
	ok := NewBuilder("ok", 2)
	ok.Send(0, 1, 8)
	ok.Recv(1, 0)
	for _, mapping := range [][]topology.NodeID{{3, 3}, {0, 16}, {-1, 2}} {
		if _, err := NewReplay(newNet(t, 16), ok.Build(), mapping); err == nil {
			t.Errorf("mapping %v accepted", mapping)
		}
		g, err := GoalFromTrace(ok.Build())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewGoalReplay(newNet(t, 16), g, mapping); err == nil {
			t.Errorf("goal mapping %v accepted", mapping)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-rank builder accepted")
		}
	}()
	NewBuilder("bad", 1)
}

// Build runs its body twice; a body that emits differently the second time
// would leave a rank's window short or spill out of it.
func TestBuildRejectsUnrepeatableBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a body that emits more on its second run was accepted")
		}
	}()
	calls := 0
	Build("drift", 2, func(b *Builder) error {
		calls++
		for i := 0; i < calls; i++ {
			b.Compute(0, 5)
		}
		return nil
	})
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpCompute: "compute", OpSend: "send", OpIsend: "isend",
		OpRecv: "recv", OpIrecv: "irecv", OpWait: "wait", OpWaitall: "waitall",
	} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestAlltoallPowerOfTwo(t *testing.T) {
	const ranks = 8
	b := NewBuilder("a2a", ranks)
	b.Alltoall(512)
	net := newNet(t, ranks)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("pairwise alltoall deadlocked")
	}
	// n-1 steps, each rank sends one block: 8*7 = 56 messages.
	if got := net.Collector.Throughput.AcceptedPkts; got != 56 {
		t.Fatalf("alltoall moved %d packets, want 56", got)
	}
}

func TestAlltoallNonPowerOfTwo(t *testing.T) {
	b := NewBuilder("a2a6", 6)
	b.Alltoall(256)
	net := newNet(t, 6)
	if !runReplay(t, net, b.Build()).Finished() {
		t.Fatal("ring alltoall deadlocked")
	}
	if got := net.Collector.Throughput.AcceptedPkts; got != 30 {
		t.Fatalf("alltoall moved %d packets, want 30", got)
	}
}

// Build stores every rank's program in an exactly sized window of one
// array, the windows in rank order; NewBuilder's appending form stores the
// same bytes.
func TestBuildOneExactArray(t *testing.T) {
	body := func(b *Builder) error {
		for r := 0; r < 8; r++ {
			b.Compute(r, sim.Time(1000*(r+1)))
			b.Sendrecv(r, (r+1)%8, (r+7)%8, 4096<<r)
		}
		b.Allreduce(64)
		b.Alltoall(1 << 20)
		return nil
	}
	tr, err := Build("windows", 8, body)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("windows", 8)
	body(b)
	if d := diffPrograms(tr, b.Build()); d != "" {
		t.Fatalf("built and appended programs differ: %s", d)
	}
	var next unsafe.Pointer
	for r, p := range tr.progs {
		if len(p) == 0 || cap(p) != len(p) {
			t.Fatalf("rank %d: %d bytes in room for %d", r, len(p), cap(p))
		}
		if r > 0 && unsafe.Pointer(&p[0]) != next {
			t.Fatalf("rank %d's program does not follow rank %d's in one array", r, r-1)
		}
		next = unsafe.Add(unsafe.Pointer(&p[0]), len(p))
	}
}
