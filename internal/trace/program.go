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

// typeFlag marks an op byte followed by an MPI-type byte.
const typeFlag = 0x80

// appendEvent appends ev's record to p. Fields its op does not use are not
// stored and decode as zero; NewBuilder, Build and ReadTrace all store
// through it.
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
	}
	return n
}

// varintLen is the length of v's zigzag varint: seven bits a byte.
func varintLen(v int64) int {
	zz := uint64(v)<<1 ^ uint64(v>>63)
	return (bits.Len64(zz|1) + 6) / 7
}

// Cursor reads one rank's program event by event. It is a value: a copy
// resumes where the original stood.
type Cursor struct {
	prog []byte
	pc   int
}

// Cursor returns a cursor at the start of rank's program.
func (t *Trace) Cursor(rank int) Cursor { return Cursor{prog: t.progs[rank]} }

// PC returns how many events Next has returned.
func (c *Cursor) PC() int { return c.pc }

// Next decodes the next event; ok is false at the end of the program.
func (c *Cursor) Next() (ev Event, ok bool) {
	p := c.prog
	if len(p) == 0 {
		return ev, false
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
