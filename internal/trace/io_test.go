package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"prdrb/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	b := NewBuilder("roundtrip", 4)
	b.Compute(0, 1000)
	b.Send(0, 1, 2048)
	b.Recv(1, 0)
	b.Isend(2, 3, 512)
	b.IrecvQuiet(3, 2)
	b.Wait(3)
	b.Waitall(2)
	b.Allreduce(64)
	tr := b.Build()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Ranks != tr.Ranks {
		t.Fatalf("header mismatch: %q/%d", got.Name, got.Ranks)
	}
	if d := diffPrograms(got, tr); d != "" {
		t.Fatalf("events did not round trip: %s", d)
	}
	if !reflect.DeepEqual(got.CallMix, tr.CallMix) {
		t.Fatalf("call mix mismatch: %v vs %v", got.CallMix, tr.CallMix)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"",                                       // no header
		"prdrb-trace 1\nrank 0\nc 5\n",           // rank before ranks
		"prdrb-trace 1\nranks 2\nc 5\n",          // event before rank
		"prdrb-trace 1\nranks 2\nrank 9\n",       // rank out of range
		"prdrb-trace 1\nranks 1\n",               // implausible rank count
		"prdrb-trace 1\nranks 2\nbogus 1\n",      // unknown directive
		"prdrb-trace 1\nranks 2\nrank 0\ns 1\n",  // short fields
		"prdrb-trace 1\nranks 2\nrank 0\nc xx\n", // bad int
		"prdrb-trace 1\n",                        // missing ranks entirely
		// A second 'ranks' used to drop every event read so far.
		"prdrb-trace 1\nranks 2\nrank 0\nc 5\nranks 2\n",
		"prdrb-trace 1\nranks 2\nrank 0\nw 256\n",    // MPI type beyond a byte
		"prdrb-trace 1\nranks 2\nrank 0\ns 1 8 -1\n", // negative MPI type
		"prdrb-trace 1\nranks 2\ncallmix 300 1\n",    // call-mix type beyond a byte
		"prdrb-trace 1\nranks 2\ncallmix 3 -1\n",     // negative call count
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestReadTraceSkipsComments(t *testing.T) {
	src := "# comment\nprdrb-trace 1\nname x\nranks 2\n\n# more\nrank 0\nc 100\nrank 1\nc 50\n"
	tr, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor(0)
	ev, _ := c.Next()
	if _, more := c.Next(); ev.Dur != 100 || more {
		t.Fatalf("rank 0 holds %+v and more=%v, want one 100 ns compute", ev, more)
	}
}

// Serialized workload traces must replay identically to the originals.
func TestSerializedWorkloadReplays(t *testing.T) {
	b := NewBuilder("wl", 8)
	for step := 0; step < 3; step++ {
		for r := 0; r < 8; r++ {
			b.Compute(r, 1000)
			b.Sendrecv(r, (r+1)%8, (r+7)%8, 4096)
		}
		b.Allreduce(128)
	}
	orig := b.Build()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n1 := newNet(t, 8)
	r1 := runReplay(t, n1, orig)
	n2 := newNet(t, 8)
	r2 := runReplay(t, n2, loaded)
	if r1.ExecutionTime() != r2.ExecutionTime() {
		t.Fatalf("exec time diverged: %v vs %v", r1.ExecutionTime(), r2.ExecutionTime())
	}
}

// recordLen, which sizes Build's windows, must agree with the encoder on
// every op, the call record's included, and at every varint length
// boundary, negative values included.
func TestRecordLen(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 64, -65, 127, 128, 8191, 8192, 16383, 16384, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, op := range []Op{OpCompute, OpSend, OpIsend, OpRecv, OpIrecv, OpWait, OpWaitall, OpWaitall + 1, opCall} {
		for _, mpi := range []uint8{0, 9} {
			for _, v := range vals {
				ev := Event{Op: op, MPIType: mpi, Peer: int(v), Bytes: int(-v), Dur: sim.Time(v)}
				if n, want := recordLen(ev), len(appendEvent(nil, ev)); n != want {
					t.Errorf("%+v: recordLen %d, encoded %d bytes", ev, n, want)
				}
			}
		}
	}
}
