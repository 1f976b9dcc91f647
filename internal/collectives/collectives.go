// Package collectives is the algorithm library behind the trace builder's
// collective lowerings: each generator turns (ranks, bytes) into a
// per-rank point-to-point schedule for one MPI collective, selectable by
// name. The library is deliberately network-agnostic — a Schedule is pure
// data — so the same algorithms feed the linear trace builder, the GOAL
// dependency-graph writer and the offline demand analysis.
//
// Every algorithm is valid for any rank count >= 2. The power-of-two
// specializations (recursive doubling, XOR pairwise exchange) reproduce
// the historical hard-coded lowerings of internal/trace byte-for-byte;
// non-power-of-two communicators either fold the excess ranks into the
// nearest power of two (recursive doubling/halving) or use the natural
// ring/shift form of the algorithm.
package collectives

import "fmt"

// Op is a schedule step kind. The vocabulary mirrors the trace events the
// replay engine executes: blocking send/recv for tree algorithms (the
// dependency *is* the blocking), nonblocking triplets for symmetric
// exchanges.
type Op uint8

// Schedule step operations.
const (
	OpSend  Op = iota // blocking send to Peer
	OpRecv            // blocking receive from Peer
	OpIsend           // nonblocking send to Peer
	OpIrecv           // nonblocking receive from Peer
	OpWaitall
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpIsend:
		return "isend"
	case OpIrecv:
		return "irecv"
	case OpWaitall:
		return "waitall"
	}
	return "?"
}

// Step is one per-rank schedule entry.
type Step struct {
	Op    Op
	Peer  int // counterpart rank (sends/receives)
	Bytes int // payload size (sends only)
}

// Schedule is a complete per-rank program for one collective over ranks
// 0..Ranks-1. Only the per-rank order is meaningful; consumers renumber
// through a group mapping for subgroup collectives.
type Schedule struct {
	Ranks int
	// Steps[r] is rank r's program, an exactly sized window of one array.
	Steps [][]Step
	// counts is non-nil during build's counting pass: add only counts.
	counts []int
}

// build runs gen twice over one schedule of n ranks, the two-pass pattern
// of trace.Build: the first pass counts each rank's steps, the second
// fills them into place. gen must add the same steps both times.
func build(n int, gen func(s *Schedule)) *Schedule {
	if n < 2 {
		panic(fmt.Sprintf("collectives: need >= 2 ranks, got %d", n))
	}
	s := &Schedule{Ranks: n, Steps: make([][]Step, n), counts: make([]int, n)}
	gen(s)
	total := 0
	for _, c := range s.counts {
		total += c
	}
	flat := make([]Step, total)
	for r, c := range s.counts {
		s.Steps[r], flat = flat[:0:c], flat[c:]
	}
	s.counts = nil
	gen(s)
	return s
}

func (s *Schedule) add(rank int, st Step) {
	if s.counts != nil {
		s.counts[rank]++
		return
	}
	s.Steps[rank] = append(s.Steps[rank], st)
}

// exchange appends the symmetric nonblocking triplet both peers use in
// recursive-doubling-style rounds: isend+irecv+waitall on rank r.
func (s *Schedule) exchange(r, sendPeer, recvPeer, bytes int) {
	s.add(r, Step{Op: OpIsend, Peer: sendPeer, Bytes: bytes})
	s.add(r, Step{Op: OpIrecv, Peer: recvPeer})
	s.add(r, Step{Op: OpWaitall})
}

// isPow2 reports whether v is a power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// floorPow2 returns the largest power of two <= v.
func floorPow2(v int) int {
	p := 1
	for p<<1 <= v {
		p <<= 1
	}
	return p
}

// ceilDiv is ceil(a/b) for non-negative a, positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BinomialBcast spreads bytes from root with the binomial tree: in round
// mask, every rank already holding the data forwards it mask ranks ahead
// (virtual ranks are renumbered relative to root). log2(n) rounds.
func BinomialBcast(n, root, bytes int) *Schedule {
	return build(n, func(s *Schedule) { binomialBcast(s, root, bytes) })
}

func binomialBcast(s *Schedule, root, bytes int) {
	n := s.Ranks
	root = ((root % n) + n) % n
	abs := func(v int) int { return (v + root) % n }
	for mask := 1; mask < n; mask <<= 1 {
		for v := 0; v < n; v++ {
			if v&(mask-1) != 0 {
				continue // not yet reached in earlier rounds
			}
			peer := v | mask
			if peer >= n {
				continue
			}
			if v&mask == 0 {
				s.add(abs(v), Step{Op: OpSend, Peer: abs(peer), Bytes: bytes})
				s.add(abs(peer), Step{Op: OpRecv, Peer: abs(v)})
			}
		}
	}
}

// BinomialReduce folds bytes toward root with the mirror binomial tree
// (largest round first — the exact reverse of BinomialBcast).
func BinomialReduce(n, root, bytes int) *Schedule {
	return build(n, func(s *Schedule) { binomialReduce(s, root, bytes) })
}

func binomialReduce(s *Schedule, root, bytes int) {
	n := s.Ranks
	root = ((root % n) + n) % n
	abs := func(v int) int { return (v + root) % n }
	top := 1
	for top < n {
		top <<= 1
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		for v := 0; v < n; v++ {
			if v&(mask-1) != 0 {
				continue
			}
			peer := v | mask
			if peer >= n || v&mask != 0 {
				continue
			}
			s.add(abs(peer), Step{Op: OpSend, Peer: abs(v), Bytes: bytes})
			s.add(abs(v), Step{Op: OpRecv, Peer: abs(peer)})
		}
	}
}

// foldIn emits the non-power-of-two preamble shared by the recursive
// algorithms: the n-p excess ranks ship their contribution to a partner
// in the power-of-two core before the core rounds run.
func foldIn(s *Schedule, p, n, bytes int) {
	for r := p; r < n; r++ {
		s.add(r, Step{Op: OpSend, Peer: r - p, Bytes: bytes})
		s.add(r-p, Step{Op: OpRecv, Peer: r})
	}
}

// foldOut mirrors foldIn after the core rounds: partners return the final
// result to the excess ranks.
func foldOut(s *Schedule, p, n, bytes int) {
	for r := p; r < n; r++ {
		s.add(r-p, Step{Op: OpSend, Peer: r, Bytes: bytes})
		s.add(r, Step{Op: OpRecv, Peer: r - p})
	}
}

// RecursiveDoubling is the classic log2(n)-round allreduce: in round mask
// every rank exchanges the full vector with rank^mask, both directions
// overlapped. On power-of-two communicators this is the historical default
// lowering, reproduced byte-for-byte. Otherwise the excess ranks fold
// their vectors into the largest power-of-two core first and receive the
// result back afterwards (two extra message rounds).
func RecursiveDoubling(n, bytes int) *Schedule {
	return build(n, func(s *Schedule) {
		p := floorPow2(n)
		if p < n {
			foldIn(s, p, n, bytes)
		}
		for mask := 1; mask < p; mask <<= 1 {
			for v := 0; v < p; v++ {
				peer := v ^ mask
				// Symmetric exchange, overlapped in both directions.
				s.exchange(v, peer, peer, bytes)
			}
		}
		if p < n {
			foldOut(s, p, n, bytes)
		}
	})
}

// RingAllreduce is the bandwidth-optimal chunked ring: a reduce-scatter
// ring of n-1 steps followed by an allgather ring of n-1 steps, each step
// moving one 1/n-sized chunk to the clockwise neighbour. Every rank moves
// ~2*bytes*(n-1)/n in total regardless of n — no rank is a root
// bottleneck, which is why it replaces the old reduce+bcast fallback on
// non-power-of-two communicators.
func RingAllreduce(n, bytes int) *Schedule {
	return build(n, func(s *Schedule) {
		chunk := ceilDiv(bytes, n)
		ringSteps(s, chunk) // reduce-scatter phase
		ringSteps(s, chunk) // allgather phase
	})
}

// ringSteps appends one ring pass (n-1 steps of chunk bytes to the
// clockwise neighbour) to every rank.
func ringSteps(s *Schedule, chunk int) {
	n := s.Ranks
	for step := 1; step < n; step++ {
		for r := 0; r < n; r++ {
			s.exchange(r, (r+1)%n, (r-1+n)%n, chunk)
		}
	}
}

// HalvingDoubling is the recursive halving-doubling allreduce: a
// reduce-scatter by recursive vector halving (farthest peer first, message
// halving every round) followed by an allgather by recursive doubling
// (nearest peer first, message doubling every round). Latency-optimal
// round count with bandwidth-optimal volume on power-of-two cores;
// non-power-of-two communicators fold the excess ranks in and out.
func HalvingDoubling(n, bytes int) *Schedule {
	return build(n, func(s *Schedule) {
		p := floorPow2(n)
		if p < n {
			foldIn(s, p, n, bytes)
		}
		// Reduce-scatter: distance p/2, p/4, ..., 1; size halves from bytes/2.
		sz := bytes
		for mask := p >> 1; mask >= 1; mask >>= 1 {
			sz /= 2
			for v := 0; v < p; v++ {
				peer := v ^ mask
				s.exchange(v, peer, peer, sz)
			}
		}
		// Allgather: distance 1, 2, ..., p/2; size doubles back up.
		for mask := 1; mask < p; mask <<= 1 {
			for v := 0; v < p; v++ {
				peer := v ^ mask
				s.exchange(v, peer, peer, sz)
			}
			sz *= 2
		}
		if p < n {
			foldOut(s, p, n, bytes)
		}
	})
}

// ReduceBcast is the historical non-power-of-two allreduce fallback —
// a binomial reduce to rank 0 followed by a binomial bcast from rank 0.
// Kept selectable so its root bottleneck can be measured against the ring.
func ReduceBcast(n, bytes int) *Schedule {
	return build(n, func(s *Schedule) {
		binomialReduce(s, 0, bytes)
		binomialBcast(s, 0, bytes)
	})
}

// PairwiseAlltoall is the n-1-step pairwise exchange: at step s every rank
// swaps its block with rank^s (power-of-two, perfect pairing) or sends to
// (rank+s) mod n while receiving from (rank-s+n) mod n (ring shifts).
// This is the historical Alltoall lowering, reproduced byte-for-byte.
func PairwiseAlltoall(n, bytesPerPair int) *Schedule {
	pow2 := isPow2(n)
	return build(n, func(sch *Schedule) {
		for s := 1; s < n; s++ {
			for r := 0; r < n; r++ {
				// XOR pairing is symmetric; a ring shift receives from the
				// rank whose step-s send targets r.
				peer, from := r^s, r^s
				if !pow2 {
					peer, from = (r+s)%n, (r-s+n)%n
				}
				if peer == r {
					continue
				}
				sch.exchange(r, peer, from, bytesPerPair)
			}
		}
	})
}

// Algorithm names.
const (
	AlgRecursiveDoubling = "recursive-doubling"
	AlgRing              = "ring"
	AlgHalvingDoubling   = "halving-doubling"
	AlgReduceBcast       = "reduce-bcast"
)

// AllreduceAlgorithms lists the selectable allreduce algorithm names.
func AllreduceAlgorithms() []string {
	return []string{AlgRecursiveDoubling, AlgRing, AlgHalvingDoubling, AlgReduceBcast}
}

// DefaultAllreduce names the allreduce the trace builder lowers to when no
// algorithm is requested: recursive doubling on power-of-two communicators
// (the historical default, byte-identical), the ring otherwise.
func DefaultAllreduce(n int) string {
	if isPow2(n) {
		return AlgRecursiveDoubling
	}
	return AlgRing
}

// Allreduce builds the named allreduce schedule over n ranks reducing a
// bytes-sized vector.
func Allreduce(alg string, n, bytes int) (*Schedule, error) {
	switch alg {
	case AlgRecursiveDoubling:
		return RecursiveDoubling(n, bytes), nil
	case AlgRing:
		return RingAllreduce(n, bytes), nil
	case AlgHalvingDoubling:
		return HalvingDoubling(n, bytes), nil
	case AlgReduceBcast:
		return ReduceBcast(n, bytes), nil
	}
	return nil, fmt.Errorf("collectives: unknown allreduce algorithm %q (want %v)", alg, AllreduceAlgorithms())
}
