package trace

import (
	"fmt"

	"prdrb/internal/collectives"
	"prdrb/internal/network"
)

// Collective lowering. The replay engine only understands point-to-point
// events, so collectives are expanded onto per-rank schedules generated by
// internal/collectives; this file is the thin bridge between the two. The
// defaults reproduce the historical hard-coded lowerings byte-for-byte
// (binomial trees for Bcast/Reduce, recursive doubling for Allreduce on
// power-of-two communicators, pairwise exchange for Alltoall, a 0-byte
// Allreduce for Barrier) — pinned by TestLoweringGolden — with one
// deliberate change: non-power-of-two Allreduce now lowers to the ring
// algorithm instead of funneling reduce+bcast through rank 0. All lowered
// events keep the collective's MPI type in their packets, so routers and
// the phase analysis still see "Allreduce traffic" (§3.3.1 MPI_type).
//
// Every lowering appends to ALL ranks (or to every rank of the given
// group), so callers must emit collectives at an SPMD phase boundary —
// which is how the workload generators are structured.

// schedKey names one lowered collective: which collective, by which
// algorithm, over how many ranks, from or toward which root, moving how
// many bytes.
type schedKey struct {
	mpiType        uint8
	alg            string
	n, root, bytes int
}

// lowering is one memoised collective: its schedule and, once lowered over
// every rank, the index of its first run in the trace's call store (-1
// before). Rank r's steps, encoded as records, are run first+r, so each
// use emits one call record per rank instead of the steps.
type lowering struct {
	s     *collectives.Schedule
	first int
}

// schedule returns the lowering of k, generating its schedule on first use.
// Lowerings are read-only once built, so one serves every repetition and
// every group the builder lowers it for.
func (b *Builder) schedule(k schedKey) (*lowering, error) {
	if l, ok := b.memo[k]; ok {
		return l, nil
	}
	var s *collectives.Schedule
	var err error
	switch k.mpiType {
	case network.MPIBcast:
		s = collectives.BinomialBcast(k.n, k.root, k.bytes)
	case network.MPIReduce:
		s = collectives.BinomialReduce(k.n, k.root, k.bytes)
	case network.MPIAllreduce, network.MPIBarrier: // a barrier is a zero-byte Allreduce
		s, err = collectives.Allreduce(k.alg, k.n, k.bytes)
	case network.MPIAlltoall:
		s = collectives.PairwiseAlltoall(k.n, k.bytes)
	default:
		panic(fmt.Sprintf("trace: no lowering for MPI type %d", k.mpiType))
	}
	if err != nil {
		return nil, err
	}
	if b.memo == nil {
		b.memo = make(map[schedKey]*lowering)
	}
	l := &lowering{s: s, first: -1}
	b.memo[k] = l
	return l, nil
}

// stepEvent is the trace event of one schedule step, its peer already
// mapped onto a trace rank.
func stepEvent(st collectives.Step, peer int, mpiType uint8) Event {
	switch st.Op {
	case collectives.OpSend:
		return Event{Op: OpSend, Peer: peer, Bytes: st.Bytes, MPIType: mpiType}
	case collectives.OpRecv:
		return Event{Op: OpRecv, Peer: peer, MPIType: mpiType}
	case collectives.OpIsend:
		return Event{Op: OpIsend, Peer: peer, Bytes: st.Bytes, MPIType: mpiType}
	case collectives.OpIrecv:
		return Event{Op: OpIrecv, Peer: peer, MPIType: mpiType}
	case collectives.OpWaitall:
		return Event{Op: OpWaitall, MPIType: mpiType}
	}
	panic(fmt.Sprintf("trace: unknown schedule op %v", st.Op))
}

// emitSchedule appends a collective's steps to the trace, with schedule
// rank i mapped onto trace rank group[i] (group nil = identity). Per-rank
// step order is preserved exactly. Over every rank the steps are checked
// and encoded once, the first time, into the trace's call store, and every
// rank with steps gets a call record to its run each time.
func (b *Builder) emitSchedule(l *lowering, group []int, mpiType uint8) {
	if group != nil {
		for r, steps := range l.s.Steps {
			for _, st := range steps {
				b.push(group[r], stepEvent(st, group[st.Peer], mpiType))
			}
		}
		return
	}
	if l.first < 0 {
		b.encode(l, mpiType)
	}
	for r, steps := range l.s.Steps {
		if len(steps) > 0 {
			b.store(r, Event{Op: opCall, Peer: l.first + r}, len(steps))
		}
	}
}

// encode checks l's steps and stores them in the call store, one run per
// rank, all in one exactly sized array.
func (b *Builder) encode(l *lowering, mpiType uint8) {
	size := 0
	for r, steps := range l.s.Steps {
		for _, st := range steps {
			ev := stepEvent(st, st.Peer, mpiType)
			b.check(r, ev)
			size += recordLen(ev)
		}
	}
	enc := make([]byte, 0, size)
	l.first = len(b.tr.calls)
	for _, steps := range l.s.Steps {
		start := len(enc)
		for _, st := range steps {
			enc = appendEvent(enc, stepEvent(st, st.Peer, mpiType))
		}
		b.tr.calls = append(b.tr.calls, enc[start:])
	}
}

// checkGroup validates a subgroup collective's rank list: at least two
// distinct ranks, all within the trace.
func (b *Builder) checkGroup(group []int) error {
	if len(group) < 2 {
		return fmt.Errorf("trace: collective group needs >= 2 ranks, got %d", len(group))
	}
	seen := make(map[int]bool, len(group))
	for _, r := range group {
		if r < 0 || r >= b.tr.Ranks {
			return fmt.Errorf("trace: group rank %d out of range [0,%d)", r, b.tr.Ranks)
		}
		if seen[r] {
			return fmt.Errorf("trace: duplicate rank %d in collective group", r)
		}
		seen[r] = true
	}
	return nil
}

// lower emits collective k over group (nil = every rank), its events tagged
// with k's MPI type, and counts one logical call per participating rank.
func (b *Builder) lower(k schedKey, group []int) error {
	if b.open != nil {
		panic(fmt.Sprintf("trace: %s collective inside block %v", network.MPITypeName(k.mpiType), b.open.key))
	}
	l, err := b.schedule(k)
	if err != nil {
		return err
	}
	b.count(k.mpiType, int64(k.n))
	b.emitSchedule(l, group, k.mpiType)
	return nil
}

// mustLower is lower for the collectives whose algorithm always resolves.
func (b *Builder) mustLower(k schedKey) {
	if err := b.lower(k, nil); err != nil {
		panic(err)
	}
}

// Bcast lowers MPI_Bcast from root over all ranks with a binomial tree.
func (b *Builder) Bcast(root, bytes int) {
	b.mustLower(schedKey{mpiType: network.MPIBcast, n: b.tr.Ranks, root: root, bytes: bytes})
}

// Reduce lowers MPI_Reduce toward root with the mirror binomial tree.
func (b *Builder) Reduce(root, bytes int) {
	b.mustLower(schedKey{mpiType: network.MPIReduce, n: b.tr.Ranks, root: root, bytes: bytes})
}

// Allreduce lowers MPI_Allreduce with the default algorithm: recursive
// doubling on power-of-two communicators (log2(n) rounds of pairwise
// exchanges — the heavy all-to-all-ish load POP and LAMMPS put on the
// fabric), the bandwidth-balanced ring otherwise.
func (b *Builder) Allreduce(bytes int) {
	n := b.tr.Ranks
	b.mustLower(schedKey{mpiType: network.MPIAllreduce, alg: collectives.DefaultAllreduce(n), n: n, bytes: bytes})
}

// AllreduceAlg lowers MPI_Allreduce with the named algorithm
// (collectives.AllreduceAlgorithms lists the choices).
func (b *Builder) AllreduceAlg(alg string, bytes int) error {
	return b.lower(schedKey{mpiType: network.MPIAllreduce, alg: alg, n: b.tr.Ranks, bytes: bytes}, nil)
}

// AllreduceGroup lowers MPI_Allreduce over a rank subgroup (an MPI
// sub-communicator — e.g. one data-parallel replica group of a DP+PP
// hybrid job) with the named algorithm.
func (b *Builder) AllreduceGroup(group []int, alg string, bytes int) error {
	if err := b.checkGroup(group); err != nil {
		return err
	}
	return b.lower(schedKey{mpiType: network.MPIAllreduce, alg: alg, n: len(group), bytes: bytes}, group)
}

// Barrier lowers MPI_Barrier as a zero-byte Allreduce.
func (b *Builder) Barrier() {
	n := b.tr.Ranks
	b.mustLower(schedKey{mpiType: network.MPIBarrier, alg: collectives.DefaultAllreduce(n), n: n})
}

// Alltoall lowers MPI_Alltoall (the transpose step of FFT codes like NAS
// FT) with the pairwise-exchange algorithm. bytesPerPair is the block each
// pair swaps.
func (b *Builder) Alltoall(bytesPerPair int) {
	b.mustLower(schedKey{mpiType: network.MPIAlltoall, n: b.tr.Ranks, bytes: bytesPerPair})
}
