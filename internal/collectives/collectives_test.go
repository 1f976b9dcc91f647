package collectives

import (
	"fmt"
	"testing"
	"unsafe"
)

var rankCounts = []int{2, 3, 4, 5, 7, 8, 12, 16, 64}

// checkMatched verifies a schedule's structural invariants: peers in
// range, no self-messages, and every ordered pair's send count equal to
// its receive count (so a replay can always match every message).
func checkMatched(t *testing.T, s *Schedule) {
	t.Helper()
	type pair struct{ src, dst int }
	sends := map[pair]int{}
	recvs := map[pair]int{}
	for r, steps := range s.Steps {
		for _, st := range steps {
			switch st.Op {
			case OpSend, OpIsend:
				if st.Peer < 0 || st.Peer >= s.Ranks || st.Peer == r {
					t.Fatalf("rank %d: bad send peer %d (n=%d)", r, st.Peer, s.Ranks)
				}
				sends[pair{r, st.Peer}]++
			case OpRecv, OpIrecv:
				if st.Peer < 0 || st.Peer >= s.Ranks || st.Peer == r {
					t.Fatalf("rank %d: bad recv peer %d (n=%d)", r, st.Peer, s.Ranks)
				}
				recvs[pair{st.Peer, r}]++
			}
		}
	}
	for p, n := range sends {
		if recvs[p] != n {
			t.Fatalf("pair %d->%d: %d sends but %d recvs", p.src, p.dst, n, recvs[p])
		}
	}
	for p, n := range recvs {
		if sends[p] != n {
			t.Fatalf("pair %d->%d: %d recvs but %d sends", p.src, p.dst, n, sends[p])
		}
	}
}

func TestAllAlgorithmsMatched(t *testing.T) {
	for _, n := range rankCounts {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for _, alg := range AllreduceAlgorithms() {
				s, err := Allreduce(alg, n, 4096)
				if err != nil {
					t.Fatal(err)
				}
				checkMatched(t, s)
			}
			checkMatched(t, PairwiseAlltoall(n, 256))
			for _, root := range []int{0, 1, n - 1} {
				checkMatched(t, BinomialBcast(n, root, 512))
				checkMatched(t, BinomialReduce(n, root, 512))
			}
		})
	}
}

// TestBcastReachesAll walks the bcast tree: every non-root rank must
// receive exactly once, and only from a rank that already holds the data.
func TestBcastReachesAll(t *testing.T) {
	for _, n := range rankCounts {
		for _, root := range []int{0, 2 % n} {
			s := BinomialBcast(n, root, 64)
			got := map[int]int{}
			for r, steps := range s.Steps {
				for _, st := range steps {
					if st.Op == OpRecv {
						got[r]++
					}
				}
			}
			if got[root] != 0 {
				t.Fatalf("n=%d root=%d: root received %d times", n, root, got[root])
			}
			for r := 0; r < n; r++ {
				if r != root && got[r] != 1 {
					t.Fatalf("n=%d root=%d: rank %d received %d times, want 1", n, root, r, got[r])
				}
			}
		}
	}
}

// TestRingVolume pins the ring allreduce's defining property: total
// volume ~2*bytes*(n-1)/n per rank and perfectly balanced across ranks.
func TestRingVolume(t *testing.T) {
	const bytes = 1 << 20
	for _, n := range rankCounts {
		s := RingAllreduce(n, bytes)
		chunk := int64(ceilDiv(bytes, n))
		wantPerRank := 2 * int64(n-1) * chunk
		if got := maxRankSendBytes(s); got != wantPerRank {
			t.Fatalf("n=%d: max per-rank send %d, want %d", n, got, wantPerRank)
		}
		if got := totalSendBytes(s); got != wantPerRank*int64(n) {
			t.Fatalf("n=%d: total %d, want %d (balanced)", n, got, wantPerRank*int64(n))
		}
	}
}

// TestRingBeatsReduceBcastBottleneck quantifies the satellite fix at the
// schedule level: on a non-power-of-two communicator the old reduce+bcast
// fallback funnels ~2*bytes*log-ish volume through the root while the ring
// spreads ~2*bytes*(n-1)/n evenly; the root bottleneck must exceed the
// ring's per-rank volume.
func TestRingBeatsReduceBcastBottleneck(t *testing.T) {
	const bytes = 1 << 20
	for _, n := range []int{3, 5, 7, 12, 24, 60} {
		legacy := ReduceBcast(n, bytes)
		ring := RingAllreduce(n, bytes)
		if lb, rb := maxRankSendBytes(legacy), maxRankSendBytes(ring); lb <= rb {
			t.Fatalf("n=%d: reduce-bcast bottleneck %d not above ring %d", n, lb, rb)
		}
	}
}

// TestUnknownAlgorithm pins the registry error paths.
func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Allreduce("bogus", 8, 64); err == nil {
		t.Error("unknown allreduce accepted")
	}
}

// TestDefaults pins the default selection: the historical recursive
// doubling on power-of-two communicators, the ring elsewhere.
func TestDefaults(t *testing.T) {
	if DefaultAllreduce(64) != AlgRecursiveDoubling {
		t.Error("pow2 default is not recursive doubling")
	}
	if DefaultAllreduce(12) != AlgRing {
		t.Error("non-pow2 default is not ring")
	}
}

// TestAlltoallStepCounts pins the round structure: pairwise needs n-1
// exchange steps per rank.
func TestAlltoallStepCounts(t *testing.T) {
	for _, n := range rankCounts {
		pw := PairwiseAlltoall(n, 64)
		waits := 0
		for _, st := range pw.Steps[0] {
			if st.Op == OpWaitall {
				waits++
			}
		}
		if waits != n-1 {
			t.Fatalf("n=%d: pairwise has %d rounds on rank 0, want %d", n, waits, n-1)
		}
	}
}

// totalSendBytes sums the bytes every rank sends — the volume figure the
// algorithm-comparison tests assert on.
func totalSendBytes(s *Schedule) int64 {
	var total int64
	for _, steps := range s.Steps {
		for _, st := range steps {
			if st.Op == OpSend || st.Op == OpIsend {
				total += int64(st.Bytes)
			}
		}
	}
	return total
}

// maxRankSendBytes returns the largest per-rank send volume — the root
// bottleneck measure that separates reduce-bcast from the ring.
func maxRankSendBytes(s *Schedule) int64 {
	var max int64
	for _, steps := range s.Steps {
		var v int64
		for _, st := range steps {
			if st.Op == OpSend || st.Op == OpIsend {
				v += int64(st.Bytes)
			}
		}
		if v > max {
			max = v
		}
	}
	return max
}

// everySchedule generates one schedule of every algorithm over n ranks.
func everySchedule(n int) []*Schedule {
	out := []*Schedule{BinomialBcast(n, 1, 512), BinomialReduce(n, n-1, 512), PairwiseAlltoall(n, 256)}
	for _, alg := range AllreduceAlgorithms() {
		s, _ := Allreduce(alg, n, 4096)
		out = append(out, s)
	}
	return out
}

// A schedule's per-rank programs are exactly sized windows, in rank order,
// of one step array, so generating one costs the same few allocations at
// every rank count: nothing grows by append.
func TestScheduleOneExactArray(t *testing.T) {
	for _, n := range rankCounts {
		for i, s := range everySchedule(n) {
			var next unsafe.Pointer
			for r, steps := range s.Steps {
				if len(steps) != cap(steps) {
					t.Fatalf("n=%d schedule %d rank %d: %d steps in room for %d", n, i, r, len(steps), cap(steps))
				}
				if len(steps) == 0 {
					continue
				}
				if next != nil && unsafe.Pointer(&steps[0]) != next {
					t.Fatalf("n=%d schedule %d: rank %d's steps do not follow the previous rank's", n, i, r)
				}
				next = unsafe.Add(unsafe.Pointer(&steps[0]), len(steps)*int(unsafe.Sizeof(Step{})))
			}
		}
	}
	small := testing.AllocsPerRun(10, func() { PairwiseAlltoall(4, 64) })
	large := testing.AllocsPerRun(10, func() { PairwiseAlltoall(64, 64) })
	if small != large || large > 4 {
		t.Fatalf("PairwiseAlltoall allocates %v times at 4 ranks and %v at 64, want the same few", small, large)
	}
}
