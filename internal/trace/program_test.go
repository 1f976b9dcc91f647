package trace

import (
	"bytes"
	"strings"
	"testing"
)

// ProgramBytes counts the call store: a collective lowered once keeps its
// records there and adds a 2-byte call record per rank to the programs.
func TestProgramBytesCountsCalls(t *testing.T) {
	b := NewBuilder("bytes", 4)
	b.Allreduce(64)
	tr := b.Build()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	flat, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.ProgramBytes(), flat.ProgramBytes()+2*4; got != want {
		t.Fatalf("ProgramBytes %d, want the %d inline bytes and 4 call records, %d", got, flat.ProgramBytes(), want)
	}
}

// A Cursor copied anywhere resumes exactly as the original does: before a
// call record, inside the called run, at its last record and at the record
// just after it, and between two calls in a row.
func TestCursorCopyInCall(t *testing.T) {
	b := NewBuilder("copy", 4)
	for i := 0; i < 2; i++ {
		b.Compute(0, 5)
		b.Allreduce(64)
		b.Allreduce(64)
		b.Send(0, 1, 8)
		b.Recv(1, 0)
		b.Barrier()
	}
	tr := b.Build()
	if tr.CallRuns() == 0 {
		t.Fatal("no collective went to the call store")
	}
	for r := 0; r < tr.Ranks; r++ {
		var inCall, afterCall int
		c := tr.Cursor(r)
		for {
			switch {
			case len(c.prog) > 0 && c.ret != nil:
				inCall++
			case len(c.prog) == 0 && len(c.ret) > 0:
				afterCall++
			}
			cp, orig := c, c
			for {
				ec, okc := cp.Next()
				eo, oko := orig.Next()
				if ec != eo || okc != oko || cp.PC() != orig.PC() {
					t.Fatalf("rank %d: a copy at pc %d read %+v (%v) at pc %d, the original %+v (%v) at pc %d", r, c.PC(), ec, okc, cp.PC(), eo, oko, orig.PC())
				}
				if !okc {
					break
				}
			}
			if _, ok := c.Next(); !ok {
				break
			}
		}
		if inCall == 0 || afterCall == 0 {
			t.Fatalf("rank %d: %d copies inside a call and %d after one, want some of each", r, inCall, afterCall)
		}
	}
}

// A call record no builder wrote, truncated or naming a run the call store
// does not hold, stops the Cursor with the corrupt-record panic.
func TestCorruptCallPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		rec  []byte
	}{
		{"truncated", []byte{opCall}},
		{"truncated index", []byte{opCall, 0x80}},
		{"index out of range", []byte{opCall, 9}},
		{"index past 64 bits", []byte{opCall, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("corrupt", 2)
			b.Barrier()
			tr := b.Build()
			if tr.CallRuns() != 2 {
				t.Fatalf("%d runs in the call store, want 2", tr.CallRuns())
			}
			tr.appendRaw(0, c.rec...)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "trace: corrupt program record") {
					t.Fatalf("panic %v, want the corrupt-record one", r)
				}
			}()
			cur := tr.Cursor(0)
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
		})
	}
}
