package workloads

import (
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

type detPolicy struct{}

func (detPolicy) Name() string { return "det" }
func (detPolicy) OutputPort(r *network.Router, pkt *network.Packet) int {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target)
	}
	return r.Net().Topo.NextHop(r.ID, pkt.Dst)
}

func replayOn64(t *testing.T, tr *trace.Trace) (*trace.Replay, *network.Network) {
	t.Helper()
	topo := topology.NewMesh(8, 8)
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(64, 64, 0)
	net := network.MustNew(eng, topo, cfg, detPolicy{}, col)
	rep, err := trace.NewReplay(net, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	eng.Run(sim.Infinity)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep, net
}

// Every workload must build and replay to completion — no deadlocks, no
// mismatched sends/receives — on the default 64-rank decomposition.
func TestAllWorkloadsReplay(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := ByName(name, Options{Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			rep, net := replayOn64(t, tr)
			if !rep.Finished() {
				t.Fatal("not finished")
			}
			if rep.ExecutionTime() <= 0 {
				t.Fatal("no execution time")
			}
			if net.Shards[0].Collector.Throughput.AcceptedPkts == 0 {
				t.Fatal("workload moved no packets")
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("quake", Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// A negative option once read as a real value: -iters -1 ran one
// truncated pass and exited 0. Only 0 selects a default.
func TestNegativeOptionsRejected(t *testing.T) {
	for _, opt := range []Options{{Iterations: -1}, {Ranks: -64}, {Ranks: 1}, {MsgBytes: -1}, {ComputeNs: -1}} {
		for _, name := range Names() {
			if _, err := ByName(name, opt); err == nil {
				t.Errorf("%s accepted %+v", name, opt)
			}
		}
	}
}

func TestNonSquareRanksRejected(t *testing.T) {
	if _, err := ByName("nas-lu", Options{Ranks: 48}); err == nil {
		t.Fatal("48 ranks accepted for a square decomposition")
	}
}

func TestUnknownMGClass(t *testing.T) {
	if _, err := nasMG('Z', Options{}); err == nil {
		t.Fatal("unknown MG class accepted")
	}
}

// Table 2.1 shape: POP is ISend/Waitall dominated with a large Allreduce
// share; LU is blocking Send/Recv dominated; Sweep3D nearly pure
// Send/Recv; LAMMPS has the ~10% Allreduce signature.
func TestCallMixShapes(t *testing.T) {
	pop, err := ByName("pop", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := pop.CallShare(network.MPIIsend); s < 0.25 || s > 0.45 {
		t.Errorf("POP ISend share = %.3f, want ~0.35", s)
	}
	if s := pop.CallShare(network.MPIAllreduce); s < 0.18 || s > 0.40 {
		t.Errorf("POP Allreduce share = %.3f, want ~0.29", s)
	}
	if pop.CallShare(network.MPIRecv) != 0 {
		t.Error("POP should not use blocking MPI_Recv")
	}

	lu, err := ByName("nas-lu", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := lu.CallShare(network.MPISend); s < 0.42 || s > 0.55 {
		t.Errorf("LU Send share = %.3f, want ~0.50", s)
	}
	if s := lu.CallShare(network.MPIRecv); s < 0.42 || s > 0.55 {
		t.Errorf("LU Recv share = %.3f, want ~0.50", s)
	}

	sw, err := ByName("sweep3d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := sw.CallShare(network.MPISend) + sw.CallShare(network.MPIRecv); s < 0.9 {
		t.Errorf("Sweep3D point-to-point share = %.3f, want > 0.9", s)
	}

	lc, err := ByName("lammps-chain", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := lc.CallShare(network.MPIAllreduce); s < 0.05 || s > 0.25 {
		t.Errorf("LAMMPS Chain Allreduce share = %.3f, want ~0.11", s)
	}
	if s := lc.CallShare(network.MPISend); s < 0.3 || s > 0.55 {
		t.Errorf("LAMMPS Chain Send share = %.3f, want ~0.44", s)
	}
}

func TestMGClassesScale(t *testing.T) {
	s, err := ByName("nas-mg-s", Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("nas-mg-b", Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Class B moves much more data than class S.
	sb, bb := totalSendBytes(s), totalSendBytes(b)
	if bb < 4*sb {
		t.Fatalf("class B bytes %d not >> class S bytes %d", bb, sb)
	}
}

func totalSendBytes(tr *trace.Trace) int64 {
	var total int64
	for r := 0; r < tr.Ranks; r++ {
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if ev.Op == trace.OpSend || ev.Op == trace.OpIsend {
				total += int64(ev.Bytes)
			}
		}
	}
	return total
}

func TestIterationsScaleEvents(t *testing.T) {
	a, _ := ByName("pop", Options{Iterations: 3})
	b, _ := ByName("pop", Options{Iterations: 9})
	if b.TotalEvents() < 2*a.TotalEvents() {
		t.Fatalf("iterations do not scale events: %d vs %d", a.TotalEvents(), b.TotalEvents())
	}
}

func TestSmallerRankCounts(t *testing.T) {
	for _, name := range []string{"nas-lu", "pop", "sweep3d", "lammps-comb"} {
		tr, err := ByName(name, Options{Ranks: 16, Iterations: 2})
		if err != nil {
			t.Fatalf("%s at 16 ranks: %v", name, err)
		}
		if tr.Ranks != 16 {
			t.Fatalf("%s ranks = %d", name, tr.Ranks)
		}
		rep, _ := replayOn64(t, tr)
		if !rep.Finished() {
			t.Fatalf("%s at 16 ranks did not finish", name)
		}
	}
}

// The LU wavefront must serialize along the diagonal: rank 63 (far corner)
// cannot finish its first sweep before a chain of at least 14 hops of
// messages reaches it.
func TestLUWavefrontDependency(t *testing.T) {
	tr, err := ByName("nas-lu", Options{Iterations: 1, ComputeNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := replayOn64(t, tr)
	// 14 sequential 2KB messages at 2 Gbps ~ 14 * 8.2us minimum.
	if rep.ExecutionTime() < 100*sim.Microsecond {
		t.Fatalf("LU wavefront too fast (%v): dependencies not serialized", rep.ExecutionTime())
	}
}

func TestNASFTAlltoallDominated(t *testing.T) {
	tr, err := ByName("nas-ft-a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.CallShare(network.MPIAlltoall); s < 0.3 {
		t.Errorf("FT Alltoall share = %.3f, want dominant", s)
	}
	if _, err := nasFT('Z', Options{}); err == nil {
		t.Error("unknown FT class accepted")
	}
}

func TestSMG2000AnisotropicHalos(t *testing.T) {
	tr, err := ByName("smg2000", Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// X-distance-4 partners must appear (semicoarsened level), and the
	// y halos stay at distance 1: rank 0 (corner (0,0) of the 8x8 grid)
	// must send to (4,0)=4 but never to (0,4)=32... SMG keeps y at 1, so
	// 0 talks to 8 (y+1) and 56 (y-1 wrapped) but not 32.
	sent := map[int]bool{}
	c := tr.Cursor(0)
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		// Only the application's own halos: collective lowering (Allreduce
		// recursive doubling, Bcast trees) legitimately reaches any rank.
		switch ev.MPIType {
		case network.MPIAllreduce, network.MPIBcast, network.MPIReduce, network.MPIBarrier, network.MPIAlltoall:
			continue
		}
		if ev.Op == trace.OpSend || ev.Op == trace.OpIsend {
			sent[ev.Peer] = true
		}
	}
	if !sent[4] {
		t.Error("no x-distance-4 semicoarsened halo from rank 0")
	}
	if sent[32] {
		t.Error("unexpected y-distance-4 halo (coarsening should be x-only)")
	}
}
