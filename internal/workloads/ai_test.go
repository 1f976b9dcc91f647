package workloads

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/trace"
)

// The dp job must be Allreduce-dominated (bucketed gradient sync is the
// only communication), while the pure pipeline must be Send/Recv chains
// with a negligible collective residue.
func TestAICallMixShapes(t *testing.T) {
	dp, err := ByName("ai-dp-allreduce", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := dp.CallShare(network.MPIAllreduce); s < 0.9 {
		t.Errorf("dp Allreduce share = %.3f, want > 0.9", s)
	}

	pp, err := ByName("ai-pp-pipeline", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := pp.CallShare(network.MPISend) + pp.CallShare(network.MPIRecv); s < 0.9 {
		t.Errorf("pp point-to-point share = %.3f, want > 0.9", s)
	}

	hy, err := ByName("ai-dp-pp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ar := hy.CallShare(network.MPIAllreduce)
	p2p := hy.CallShare(network.MPISend) + hy.CallShare(network.MPIRecv)
	if ar < 0.05 || p2p < 0.3 {
		t.Errorf("hybrid mix: allreduce %.3f p2p %.3f, want both present", ar, p2p)
	}
}

// The dp job must work on non-power-of-two and non-square rank counts —
// the whole point of the ring fallback.
func TestAIDPNonPow2Ranks(t *testing.T) {
	for _, n := range []int{6, 12, 48} {
		tr, err := ByName("ai-dp-allreduce", Options{Ranks: n, Iterations: 1})
		if err != nil {
			t.Fatalf("%d ranks: %v", n, err)
		}
		if tr.Ranks != n {
			t.Fatalf("%d ranks: trace has %d", n, tr.Ranks)
		}
		rep, _ := replayOn64(t, tr)
		if !rep.Finished() {
			t.Fatalf("%d ranks: replay did not finish", n)
		}
	}
}

// Decomposition constraints are rejected up front.
func TestAIRankValidation(t *testing.T) {
	if _, err := ByName("ai-dp-allreduce", Options{Ranks: 1}); err == nil {
		t.Error("1-rank dp accepted")
	}
	if _, err := ByName("ai-pp-pipeline", Options{Ranks: 1}); err == nil {
		t.Error("1-stage pipeline accepted")
	}
	if _, err := ByName("ai-dp-pp", Options{Ranks: 6}); err == nil {
		t.Error("6 ranks accepted for a 4-stage hybrid")
	}
	if _, err := ByName("ai-dp-pp", Options{Ranks: 4}); err == nil {
		t.Error("single-replica hybrid accepted (dp group of 1)")
	}
}

// The hybrid's gradient traffic must stay inside each stage's dp group:
// stage-s ranks Allreduce only with other stage-s ranks.
func TestAIDPPPGroupIsolation(t *testing.T) {
	tr, err := ByName("ai-dp-pp", Options{Ranks: 16, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With 16 ranks = 4 replicas x 4 stages, rank 1 is stage 1 of replica
	// 0; its group peers are ranks 5, 9, 13. Scan its large-Allreduce
	// sends (the 64-byte loss Allreduce spans the full communicator).
	c := tr.Cursor(1)
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		if ev.MPIType != network.MPIAllreduce || ev.Bytes < 1024 {
			continue
		}
		if ev.Op == trace.OpSend || ev.Op == trace.OpIsend {
			if ev.Peer%aiStages != 1 {
				t.Fatalf("stage-1 rank sent gradients to rank %d (stage %d)", ev.Peer, ev.Peer%aiStages)
			}
		}
	}
}

// The pipeline must serialize through the stage chain: with near-zero
// compute, execution time is still bounded below by the microbatch
// message chain through all 64 stages.
func TestAIPipelineDependencyChain(t *testing.T) {
	tr, err := ByName("ai-pp-pipeline", Options{Iterations: 1, ComputeNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := replayOn64(t, tr)
	// 63 sequential 32KB hops to fill, plus drain: >> 100us at 2 Gbps.
	if rep.ExecutionTime() < 100*1000 {
		t.Fatalf("pipeline too fast (%v): stage chain not serialized", rep.ExecutionTime())
	}
}
