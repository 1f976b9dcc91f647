package trace

import (
	"encoding/binary"
	"math/bits"

	"prdrb/internal/sim"
)

// A rank's program is stored encoded, one record per event: an op byte,
// the MPI-type byte when the event has one, then zigzag varints for the
// fields the op uses — peer and byte count for sends, peer for receives,
// duration for compute. A typical event takes 3–4 bytes instead of the 32
// of a decoded Event. The varints are signed and 64-bit, so every value
// ReadTrace accepts (a negative size, a peer outside the trace, a MaxInt64
// duration) is stored as read and reaches Validate.
//
// A call record stands for a run of records kept once in the trace's call
// store (Trace.calls): the op byte opCall, then the uvarint index of the
// run. Build emits one for each rank of each full-communicator collective
// and of each Block use, so a lowering or a point-to-point block repeated
// every iteration is stored once and called from then on. The Cursor
// follows a call and returns; runs hold no calls.

// typeFlag marks an op byte followed by an MPI-type byte.
const typeFlag = 0x80

// opCall is the op byte of a call record. An event's op byte is its Op,
// with typeFlag when an MPI type follows: the seven ops are below 7 and
// the unknown ops the tests store (42, and op%8 in the fuzz bodies) below
// 64, so no event's op byte is 0x7f.
const opCall = 0x7f

// appendEvent appends ev's record to p. Fields its op does not use are not
// stored and decode as zero; NewBuilder, Build and ReadTrace all store
// through it. An Event of Op opCall is the call record of run ev.Peer.
func appendEvent(p []byte, ev Event) []byte {
	if ev.MPIType != 0 {
		p = append(p, byte(ev.Op)|typeFlag, ev.MPIType)
	} else {
		p = append(p, byte(ev.Op))
	}
	switch ev.Op {
	case OpCompute:
		p = binary.AppendVarint(p, int64(ev.Dur))
	case OpSend, OpIsend:
		p = binary.AppendVarint(p, int64(ev.Peer))
		p = binary.AppendVarint(p, int64(ev.Bytes))
	case OpRecv, OpIrecv:
		p = binary.AppendVarint(p, int64(ev.Peer))
	case opCall:
		p = binary.AppendUvarint(p, uint64(ev.Peer))
	}
	return p
}

// recordLen is len(appendEvent(nil, ev)), worked out without writing it:
// Build's counting pass sizes every rank's program with it.
func recordLen(ev Event) int {
	n := 1
	if ev.MPIType != 0 {
		n = 2
	}
	switch ev.Op {
	case OpCompute:
		n += varintLen(int64(ev.Dur))
	case OpSend, OpIsend:
		n += varintLen(int64(ev.Peer)) + varintLen(int64(ev.Bytes))
	case OpRecv, OpIrecv:
		n += varintLen(int64(ev.Peer))
	case opCall:
		n += uvarintLen(uint64(ev.Peer))
	}
	return n
}

// varintLen is the length of v's zigzag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// uvarintLen is the length of v's uvarint: seven bits a byte.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Cursor reads one rank's program event by event. It is a value: a copy
// resumes where the original stood, inside a call too.
type Cursor struct {
	// prog is what is left of the program, or of the called run while
	// ret holds what is left of the program after the call.
	prog, ret []byte
	calls     [][]byte
	pc        int
}

// Cursor returns a cursor at the start of rank's program.
func (t *Trace) Cursor(rank int) Cursor { return Cursor{prog: t.progs[rank], calls: t.calls} }

// PC returns how many events Next has returned.
func (c *Cursor) PC() int { return c.pc }

// Next decodes the next event; ok is false at the end of the program.
func (c *Cursor) Next() (ev Event, ok bool) {
	p := c.prog
	if len(p) == 0 {
		if len(c.ret) == 0 {
			return ev, false
		}
		p, c.ret = c.ret, nil
	}
	if p[0] == opCall {
		p = c.call(p)
	}
	op, i := p[0], 1
	if op&typeFlag != 0 {
		op &^= typeFlag
		ev.MPIType = p[1]
		i = 2
	}
	ev.Op = Op(op)
	var v int64
	switch ev.Op {
	case OpCompute:
		v, i = varintAt(p, i)
		ev.Dur = sim.Time(v)
	case OpSend, OpIsend:
		v, i = varintAt(p, i)
		ev.Peer = int(v)
		v, i = varintAt(p, i)
		ev.Bytes = int(v)
	case OpRecv, OpIrecv:
		v, i = varintAt(p, i)
		ev.Peer = int(v)
	}
	c.prog = p[i:]
	c.pc++
	return ev, true
}

// call enters the run the call record at p[0] names, keeping what follows
// the record to return to.
func (c *Cursor) call(p []byte) []byte {
	k, n := binary.Uvarint(p[1:])
	if n <= 0 || k >= uint64(len(c.calls)) || len(c.calls[k]) == 0 {
		panic("trace: corrupt program record")
	}
	c.ret = p[1+n:]
	return c.calls[k]
}

// varintAt decodes the zigzag varint at p[i:] and returns it with the
// index just past it.
func varintAt(p []byte, i int) (int64, int) {
	if b := p[i]; b < 0x80 { // one byte: every peer below 64
		return int64(b>>1) ^ -int64(b&1), i + 1
	}
	return longVarintAt(p, i)
}

// longVarintAt is varintAt's path for varints of two bytes and more.
func longVarintAt(p []byte, i int) (int64, int) {
	v, n := binary.Varint(p[i:])
	if n <= 0 {
		panic("trace: corrupt program record")
	}
	return v, i + n
}
