package trace

import (
	"fmt"
	"testing"

	"prdrb/internal/collectives"
	"prdrb/internal/network"
)

// TestCollectiveAlgorithmsReplay replays every selectable algorithm at a
// power-of-two and a non-power-of-two rank count: each schedule must drain
// without deadlock under the rendezvous replay semantics.
func TestCollectiveAlgorithmsReplay(t *testing.T) {
	for _, n := range []int{6, 8, 12, 16} {
		for _, alg := range collectives.AllreduceAlgorithms() {
			t.Run(fmt.Sprintf("allreduce-%s-n%d", alg, n), func(t *testing.T) {
				b := NewBuilder("coll", n)
				if err := b.AllreduceAlg(alg, 2048); err != nil {
					t.Fatal(err)
				}
				if !runReplay(t, newNet(t, n), b.Build()).Finished() {
					t.Fatal("deadlocked")
				}
			})
		}
		t.Run(fmt.Sprintf("alltoall-pairwise-n%d", n), func(t *testing.T) {
			b := NewBuilder("coll", n)
			b.Alltoall(256)
			if !runReplay(t, newNet(t, n), b.Build()).Finished() {
				t.Fatal("deadlocked")
			}
		})
	}
}

// TestAllreduceNonPow2Ring pins the satellite fix: on a non-power-of-two
// communicator the default Allreduce now lowers to the ring, and the ring
// finishes a large reduction faster than the old reduce+bcast fallback —
// the root's serialized full-vector rounds are the bottleneck the ring
// removes.
func TestAllreduceNonPow2Ring(t *testing.T) {
	const n, bytes = 12, 1 << 20

	run := func(alg string) (exec int64) {
		b := NewBuilder("allreduce-"+alg, n)
		if err := b.AllreduceAlg(alg, bytes); err != nil {
			t.Fatal(err)
		}
		rep := runReplay(t, newNet(t, n), b.Build())
		return int64(rep.ExecutionTime())
	}

	// The default must be the ring (byte-identical to an explicit request).
	var def, ring bytesRecorder
	bDef := NewBuilder("x", n)
	bDef.Allreduce(bytes)
	if err := WriteTrace(&def, bDef.Build()); err != nil {
		t.Fatal(err)
	}
	bRing := NewBuilder("x", n)
	if err := bRing.AllreduceAlg(collectives.AlgRing, bytes); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&ring, bRing.Build()); err != nil {
		t.Fatal(err)
	}
	if string(def) != string(ring) {
		t.Fatal("non-pow2 Allreduce default is not the ring lowering")
	}

	ringExec := run(collectives.AlgRing)
	legacyExec := run(collectives.AlgReduceBcast)
	if ringExec >= legacyExec {
		t.Fatalf("ring allreduce (%dns) not faster than reduce+bcast (%dns) at n=%d, %dB",
			ringExec, legacyExec, n, bytes)
	}
	t.Logf("n=%d %dB allreduce: ring %dns vs reduce+bcast %dns (%.1fx)",
		n, bytes, ringExec, legacyExec, float64(legacyExec)/float64(ringExec))
}

type bytesRecorder []byte

func (b *bytesRecorder) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// TestAllreduceGroup checks subgroup lowering: only group members get
// events, peers stay inside the group, and the replay completes.
func TestAllreduceGroup(t *testing.T) {
	b := NewBuilder("group", 16)
	group := []int{1, 5, 9, 13}
	if err := b.AllreduceGroup(group, collectives.AlgRing, 1024); err != nil {
		t.Fatal(err)
	}
	tr := b.Build()
	inGroup := map[int]bool{}
	for _, r := range group {
		inGroup[r] = true
	}
	for r := 0; r < tr.Ranks; r++ {
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if !inGroup[r] {
				t.Fatalf("rank %d outside the group got events", r)
			}
			if ev.Op == OpSend || ev.Op == OpIsend || ev.Op == OpRecv || ev.Op == OpIrecv {
				if !inGroup[ev.Peer] {
					t.Fatalf("rank %d talks to non-member %d", r, ev.Peer)
				}
			}
		}
	}
	if !runReplay(t, newNet(t, 16), tr).Finished() {
		t.Fatal("group allreduce deadlocked")
	}
	if tr.CallMix[network.MPIAllreduce] != int64(len(group)) {
		t.Errorf("call mix counted %d, want %d", tr.CallMix[network.MPIAllreduce], len(group))
	}

	// Validation failures.
	if err := b.AllreduceGroup([]int{3}, collectives.AlgRing, 64); err == nil {
		t.Error("singleton group accepted")
	}
	if err := b.AllreduceGroup([]int{1, 1}, collectives.AlgRing, 64); err == nil {
		t.Error("duplicate ranks accepted")
	}
	if err := b.AllreduceGroup([]int{1, 99}, collectives.AlgRing, 64); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if err := b.AllreduceGroup(group, "bogus", 64); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := b.AllreduceAlg("bogus", 64); err == nil {
		t.Error("unknown allreduce algorithm accepted")
	}
}
