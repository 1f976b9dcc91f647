// Package trace implements the logical-trace machinery of the paper's
// application-aware evaluation (§4.7, Fig 4.19): an MPI-style event
// vocabulary, a builder that workload generators use to emit per-rank
// traces (with collectives lowered onto point-to-point algorithms), and a
// replay engine that drives the network simulator from the traces — "each
// node in the network reads an input trace file and simulates the events"
// — preserving the logical dependencies between communication calls that
// physical traces lack (§5.1 "Original DRB Extended").
package trace

import (
	"encoding/binary"
	"fmt"

	"prdrb/internal/network"
	"prdrb/internal/sim"
)

// Op is a logical trace operation.
type Op uint8

// Trace operations. Collectives never appear in final traces — the Builder
// lowers them — but Compute and the point-to-point five are replayed
// directly.
const (
	OpCompute Op = iota
	OpSend       // blocking send: completes when the message is delivered
	OpIsend      // nonblocking send: registers a request
	OpRecv       // blocking receive from a specific rank
	OpIrecv      // nonblocking receive: registers a request
	OpWait       // waits for the oldest incomplete request
	OpWaitall    // waits for every outstanding request
)

func (o Op) String() string {
	switch o {
	case OpCompute:
		return "compute"
	case OpSend:
		return "send"
	case OpIsend:
		return "isend"
	case OpRecv:
		return "recv"
	case OpIrecv:
		return "irecv"
	case OpWait:
		return "wait"
	case OpWaitall:
		return "waitall"
	}
	return "?"
}

// Event is one decoded per-rank trace entry. Traces store their events
// encoded (program.go); a Cursor hands them out one by one as Events.
type Event struct {
	Op Op
	// MPIType tags the packet headers with the *logical* MPI call the event
	// was lowered from (e.g. a send belonging to an Allreduce), feeding the
	// §3.3.1 MPI_type field and the phase analysis.
	MPIType uint8
	Peer    int      // counterpart rank for sends/receives
	Bytes   int      // message size
	Dur     sim.Time // compute duration
}

// Trace is a complete per-rank event program.
type Trace struct {
	Ranks int
	// progs holds each rank's encoded program; read it with Cursor.
	progs [][]byte
	// calls is the call store: the runs of records the programs' call
	// records name, one per rank of each full-communicator collective
	// the builder lowered and of each block it memoised (program.go).
	calls [][]byte
	// events counts the events of every rank.
	events int
	// checked is set by Build on a trace whose every event it checked as
	// it counted, so NewReplay need not walk it again.
	checked bool
	// CallMix counts the *logical* MPI calls the application made (Table
	// 2.1's breakdown), before collective lowering.
	CallMix map[uint8]int64
	// Name labels the workload.
	Name string
}

// TotalEvents sums the lowered event counts across ranks.
func (t *Trace) TotalEvents() int { return t.events }

// Limits Validate puts on a trace so that replaying it cannot overflow: the
// virtual clock stays clear of sim.Infinity however the compute phases
// chain across ranks, and a message's fragment count fits an int.
const (
	maxTotalCompute = sim.Infinity / 2
	maxMessageBytes = 1 << 30
)

// Validate checks what a replay relies on and a parsed or hand-edited trace
// can violate: one event list per rank, every event passing checkEvent.
// NewReplay calls it on every trace Build did not check, so a bad trace is
// an error there and not a panic in the middle of a run.
func (t *Trace) Validate() error {
	if len(t.progs) != t.Ranks {
		return fmt.Errorf("trace: %d event lists for %d ranks", len(t.progs), t.Ranks)
	}
	var compute sim.Time
	for r := range t.progs {
		c := t.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if err := checkEvent(ev, r, t.Ranks, &compute); err != nil {
				return fmt.Errorf("trace: rank %d pc %d: %w", r, c.PC()-1, err)
			}
		}
	}
	return nil
}

// checkEvent is the rule every event of rank r in a trace of ranks ranks
// must keep: a send or receive names another rank of the trace, a send's
// size and a compute duration are neither negative nor beyond the limits
// above, the op is known. compute is the compute time of the events
// checked before, in any order; checkEvent adds ev's. It looks only at the
// fields ev's op stores.
func checkEvent(ev Event, r, ranks int, compute *sim.Time) error {
	switch ev.Op {
	case OpCompute:
		if ev.Dur < 0 {
			return fmt.Errorf("negative compute duration %d", int64(ev.Dur))
		}
		if ev.Dur > maxTotalCompute-*compute {
			return fmt.Errorf("compute time adds up to more than %v", maxTotalCompute)
		}
		*compute += ev.Dur
	case OpSend, OpIsend, OpRecv, OpIrecv:
		if ev.Peer < 0 || ev.Peer >= ranks {
			return fmt.Errorf("%v peer %d out of range [0,%d)", ev.Op, ev.Peer, ranks)
		}
		if ev.Peer == r {
			return fmt.Errorf("%v to itself", ev.Op)
		}
		if (ev.Op == OpSend || ev.Op == OpIsend) && (ev.Bytes < 0 || ev.Bytes > maxMessageBytes) {
			return fmt.Errorf("message size %d out of range [0,%d]", ev.Bytes, maxMessageBytes)
		}
	case OpWait, OpWaitall:
	default:
		return fmt.Errorf("unknown op %d", uint8(ev.Op))
	}
	return nil
}

// CallShare returns the fraction of logical calls with the given MPI type —
// the percentages of Table 2.1.
func (t *Trace) CallShare(mpiType uint8) float64 {
	var total, match int64
	for ty, n := range t.CallMix {
		total += n
		if ty == mpiType {
			match += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// Builder assembles traces rank by rank and lowers collectives. All the
// workload generators in internal/workloads emit through it, by way of
// Build; NewBuilder is the plain appending form for hand-built traces.
type Builder struct {
	tr *Trace
	// counts is non-nil during Build's counting pass: push then adds up
	// each rank's encoded bytes and checks the event, and stores neither.
	counts []int
	// mix counts the logical calls by MPI type; Build copies it into the
	// trace's CallMix (a map update per emitted call would cost a fifth of
	// a generator's time).
	mix [256]int64
	// memo holds every collective this builder has lowered, so a
	// collective repeated each iteration is generated and encoded once;
	// the encodings outlive it as the trace's call store.
	memo map[schedKey]*lowering
	// blocks memoises the point-to-point blocks Build's body opens
	// (Block); nil on a plain builder, which runs every block inline.
	blocks map[any]*block
	// open is the block whose body is running, nil outside one. While a
	// first use captures it, scratch holds its records in emission order,
	// each after its rank (uvarint) and its length (a byte), and ends adds
	// up each rank's bytes.
	open    *block
	scratch []byte
	ends    []int
	// compute and bad are the counting pass's checkEvent state: the
	// compute time seen, and whether any event failed.
	compute sim.Time
	bad     bool
}

// NewBuilder starts a trace for the given number of ranks.
func NewBuilder(name string, ranks int) *Builder {
	if ranks < 2 {
		panic(fmt.Sprintf("trace: need >= 2 ranks, got %d", ranks))
	}
	return &Builder{tr: &Trace{
		Ranks:   ranks,
		progs:   make([][]byte, ranks),
		CallMix: make(map[uint8]int64),
		Name:    name,
	}}
}

// Build runs body twice over one builder and returns the trace it emits,
// every rank's program an exactly sized window of one shared byte array:
// the first pass adds up each rank's encoded bytes and checks each event
// (checkEvent), the second encodes the events into place. The body must
// therefore emit the same events both times — a pure function of its
// inputs, which every generator in internal/workloads is. A trace whose
// events all passed is marked checked; otherwise Build returns Validate's
// error, which names the first bad event in rank order.
func Build(name string, ranks int, body func(b *Builder) error) (*Trace, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("trace: %s needs >= 2 ranks, got %d", name, ranks)
	}
	b := NewBuilder(name, ranks)
	counts := make([]int, ranks)
	b.counts = counts
	b.blocks = make(map[any]*block)
	if err := body(b); err != nil {
		return nil, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	flat := make([]byte, total)
	off := 0
	for r, n := range counts {
		if n > 0 {
			b.tr.progs[r] = flat[off : off : off+n]
		}
		off += n
	}
	b.counts = nil
	if err := body(b); err != nil {
		return nil, err
	}
	for r, n := range counts {
		if len(b.tr.progs[r]) != n {
			panic(fmt.Sprintf("trace: body emitted %d bytes for rank %d after counting %d", len(b.tr.progs[r]), r, n))
		}
	}
	tr := b.Build()
	if tr.checked = !b.bad; b.bad {
		if err := tr.Validate(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// Build returns the trace as emitted so far.
func (b *Builder) Build() *Trace {
	for ty, n := range b.mix {
		if n != 0 {
			b.tr.CallMix[uint8(ty)] = n
		}
	}
	return b.tr
}

func (b *Builder) push(rank int, ev Event) {
	if rank < 0 || rank >= b.tr.Ranks {
		panic(fmt.Sprintf("trace: rank %d out of range", rank))
	}
	if b.capturing() {
		n := recordLen(ev)
		b.scratch = appendEvent(append(binary.AppendUvarint(b.scratch, uint64(rank)), byte(n)), ev)
		b.ends[rank] += n
		b.open.events[rank]++
		b.check(rank, ev)
		return
	}
	if b.counts != nil {
		b.counts[rank] += recordLen(ev)
		b.check(rank, ev)
		return
	}
	b.store(rank, ev, 1)
}

// store appends the record of ev, which stands for n events, to rank's
// program; during the counting pass it only adds up the record's length.
func (b *Builder) store(rank int, ev Event, n int) {
	if b.counts != nil {
		b.counts[rank] += recordLen(ev)
		return
	}
	b.tr.progs[rank] = appendEvent(b.tr.progs[rank], ev)
	b.tr.events += n
}

// check applies checkEvent to an event of rank during the counting pass.
func (b *Builder) check(rank int, ev Event) {
	if b.counts != nil && !b.bad && checkEvent(ev, rank, b.tr.Ranks, &b.compute) != nil {
		b.bad = true
	}
}

// count adds n logical calls of mpiType to the call mix in the fill pass.
// A capture adds them too, in the counting pass, where mix is otherwise
// all zero, and moves them into its block.
func (b *Builder) count(mpiType uint8, n int64) {
	if b.counts == nil || b.capturing() {
		b.mix[mpiType] += n
	}
}

// block is one memoised point-to-point block: rank r's events[r] records
// are run first+r of the call store, and each use adds the block's
// compute time and its logical calls.
type block struct {
	key     any
	first   int
	events  []int
	compute sim.Time
	mix     []callCount
}

// callCount is n logical calls of one MPI type.
type callCount struct {
	mpiType uint8
	n       int64
}

// capturing reports whether a first use of a block is capturing its body.
func (b *Builder) capturing() bool { return b.open != nil && b.blocks != nil }

// Block emits what body emits, point-to-point events and computes only,
// memoised under key. In Build the first use of key runs body once, checks
// its events and stores each rank's records as one run of the call store;
// every use, the first included, emits one call record per rank that has
// events, and later uses never run body, in either pass. key must
// therefore name exactly the inputs that shape body's events: two bodies
// under one key emit the first one's events both times. A plain builder
// runs body on every use. A collective or a block inside a block panics.
// Block is a function, not a method, so that a use found in the memo
// boxes no key.
func Block[K comparable](b *Builder, key K, body func()) {
	if b.open != nil {
		panic(fmt.Sprintf("trace: block %v opened inside block %v", key, b.open.key))
	}
	bl := b.blocks[key]
	switch {
	case b.blocks == nil:
		b.open = &block{key: key}
		body()
		b.open = nil
		return
	case bl == nil:
		bl = b.capture(key, body)
	case b.counts != nil && !b.bad:
		// Capture checked the events; a later use can only take the
		// compute total past its limit, as its computes would have.
		if bl.compute > maxTotalCompute-b.compute {
			b.bad = true
		}
		b.compute += bl.compute
	}
	for r, n := range bl.events {
		if n > 0 {
			b.store(r, Event{Op: opCall, Peer: bl.first + r}, n)
		}
	}
	if b.counts == nil {
		for _, c := range bl.mix {
			b.mix[c.mpiType] += c.n
		}
	}
}

// capture runs body as the first use of key in Build's counting pass and
// stores its records in the call store, one run per rank, all in one
// exactly sized array.
func (b *Builder) capture(key any, body func()) *block {
	if b.counts == nil {
		panic(fmt.Sprintf("trace: block %v first opened in Build's fill pass", key))
	}
	if b.ends == nil {
		b.ends = make([]int, b.tr.Ranks)
	}
	bl := &block{key: key, events: make([]int, b.tr.Ranks)}
	compute := b.compute
	b.open = bl
	body()
	b.open = nil
	bl.compute = b.compute - compute
	for ty, n := range b.mix {
		if n != 0 {
			bl.mix = append(bl.mix, callCount{uint8(ty), n})
			b.mix[ty] = 0
		}
	}
	// Lay the records out rank by rank: ends[r], made cumulative, is where
	// rank r's next record goes.
	size := 0
	for r, n := range b.ends {
		b.ends[r] = size
		size += n
	}
	enc := make([]byte, size)
	for p := b.scratch; len(p) > 0; {
		r, k := binary.Uvarint(p)
		n := k + 1 + int(p[k])
		b.ends[r] += copy(enc[b.ends[r]:], p[k+1:n])
		p = p[n:]
	}
	bl.first = len(b.tr.calls)
	start := 0
	for r, end := range b.ends {
		b.tr.calls = append(b.tr.calls, enc[start:end:end])
		start, b.ends[r] = end, 0
	}
	b.scratch = b.scratch[:0]
	b.blocks[key] = bl
	return bl
}

// Compute appends a local computation of duration d on rank.
func (b *Builder) Compute(rank int, d sim.Time) {
	if d <= 0 {
		return
	}
	b.push(rank, Event{Op: OpCompute, Dur: d})
}

// Send appends a blocking send (MPI_Send) from rank to to.
func (b *Builder) Send(rank, to, bytes int) {
	b.count(network.MPISend, 1)
	b.push(rank, Event{Op: OpSend, Peer: to, Bytes: bytes, MPIType: network.MPISend})
}

// Recv appends a blocking receive (MPI_Recv) on rank from from.
func (b *Builder) Recv(rank, from int) {
	b.count(network.MPIRecv, 1)
	b.push(rank, Event{Op: OpRecv, Peer: from, MPIType: network.MPIRecv})
}

// Isend appends a nonblocking send (MPI_Isend); pair with Wait/Waitall.
func (b *Builder) Isend(rank, to, bytes int) {
	b.count(network.MPIIsend, 1)
	b.push(rank, Event{Op: OpIsend, Peer: to, Bytes: bytes, MPIType: network.MPIIsend})
}

// IrecvQuiet appends a nonblocking receive without counting a logical
// MPI_Irecv call: it models persistent pre-posted requests
// (MPI_Recv_init/MPI_Startall), which is why Table 2.1 shows 0% MPI_Irecv
// for POP, MG and LAMMPS while their Wait/Waitall counts match their sends.
func (b *Builder) IrecvQuiet(rank, from int) {
	b.push(rank, Event{Op: OpIrecv, Peer: from, MPIType: network.MPIIrecv})
}

// Wait appends MPI_Wait for the oldest incomplete request on rank.
func (b *Builder) Wait(rank int) {
	b.count(network.MPIWait, 1)
	b.push(rank, Event{Op: OpWait, MPIType: network.MPIWait})
}

// Waitall appends MPI_Waitall for every outstanding request on rank.
func (b *Builder) Waitall(rank int) {
	b.count(network.MPIWaitall, 1)
	b.push(rank, Event{Op: OpWaitall, MPIType: network.MPIWaitall})
}

// Sendrecv appends a combined exchange (MPI_Sendrecv) lowered onto
// Isend+Irecv+Waitall so the two directions overlap.
func (b *Builder) Sendrecv(rank, to, from, bytes int) {
	b.count(network.MPISendrecv, 1)
	b.push(rank, Event{Op: OpIsend, Peer: to, Bytes: bytes, MPIType: network.MPISendrecv})
	b.push(rank, Event{Op: OpIrecv, Peer: from, MPIType: network.MPISendrecv})
	b.push(rank, Event{Op: OpWaitall, MPIType: network.MPISendrecv})
}
