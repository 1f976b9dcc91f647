package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"prdrb/internal/collectives"
	"prdrb/internal/sim"
)

// checkBothWays emits body through Build and through NewBuilder +
// Validate, and fails t unless both give the same error, or no error, the
// same programs and a Build trace marked checked. It returns Build's error.
func checkBothWays(t *testing.T, ranks int, body func(b *Builder) error) error {
	t.Helper()
	built, errBuilt := Build("both", ranks, body)
	b := NewBuilder("both", ranks)
	errAppended := body(b)
	appended := b.Build()
	if errAppended == nil {
		errAppended = appended.Validate()
	}
	if fmt.Sprint(errBuilt) != fmt.Sprint(errAppended) {
		t.Fatalf("Build says %v, NewBuilder + Validate says %v", errBuilt, errAppended)
	}
	if errBuilt != nil {
		if built != nil {
			t.Fatalf("Build returned a trace with its error %v", errBuilt)
		}
		return errBuilt
	}
	if !built.checked || appended.checked {
		t.Fatalf("checked: Build %v, NewBuilder %v; want true, false", built.checked, appended.checked)
	}
	if d := diffPrograms(built, appended); d != "" {
		t.Fatalf("built and appended programs differ: %s", d)
	}
	return nil
}

// Every rule Build applies as it counts, one bad event each, named by rank
// and pc exactly as Validate names it.
func TestBuildChecksEachRule(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(b *Builder)
		want string
	}{
		{"valid", func(b *Builder) {
			b.Compute(0, 5)
			b.Send(0, 1, 64)
			b.Recv(1, 0)
			b.Allreduce(256)
			b.Allreduce(256)
		}, ""},
		{"negative compute", func(b *Builder) {
			b.Compute(1, 7)
			b.push(1, Event{Op: OpCompute, Dur: -5})
		}, "rank 1 pc 1: negative compute duration -5"},
		// Build sees rank 3's compute first and rank 0's second; Validate
		// walks rank 0 first, so the total crosses the limit at rank 3.
		{"compute overflow", func(b *Builder) {
			b.Compute(3, maxTotalCompute)
			b.Compute(0, 1)
		}, "rank 3 pc 0: compute time adds up to more than"},
		{"peer out of range", func(b *Builder) {
			b.Wait(2)
			b.Send(2, 4, 8)
		}, "rank 2 pc 1: send peer 4 out of range [0,4)"},
		{"negative peer", func(b *Builder) { b.IrecvQuiet(0, -1) }, "rank 0 pc 0: irecv peer -1 out of range"},
		{"self-send", func(b *Builder) { b.Isend(2, 2, 8) }, "rank 2 pc 0: isend to itself"},
		{"oversized message", func(b *Builder) {
			b.Send(0, 1, maxMessageBytes+1)
		}, fmt.Sprintf("rank 0 pc 0: message size %d out of range", maxMessageBytes+1)},
		{"unknown op", func(b *Builder) {
			b.Compute(0, 5)
			b.push(0, Event{Op: 42, MPIType: 3})
		}, "rank 0 pc 1: unknown op 42"},
		// The first Allreduce lowering is checked when the memo encodes
		// it; the repetition calls its records and adds nothing to check.
		{"bad collective step", func(b *Builder) {
			b.Compute(0, 5)
			b.Allreduce(-64)
			b.Allreduce(-64)
		}, "rank 0 pc 1: message size -64 out of range"},
		// A block's events are checked at capture; each later use adds
		// its compute time, so the total trips where its computes would.
		{"bad block event", func(b *Builder) {
			for i := 0; i < 2; i++ {
				Block(b, "k", func() { b.Compute(0, 5); b.Send(1, 1, 8) })
			}
		}, "rank 1 pc 0: send to itself"},
		{"compute overflow through block uses", func(b *Builder) {
			for i := 0; i < 3; i++ {
				Block(b, 7, func() { b.Compute(2, maxTotalCompute/2); b.Send(2, 0, 8) })
				b.Recv(0, 2)
			}
		}, "rank 2 pc 4: compute time adds up to more than"},
		{"bad group step", func(b *Builder) {
			if err := b.AllreduceGroup([]int{3, 1}, collectives.AlgRing, maxMessageBytes*4); err != nil {
				panic(err)
			}
		}, fmt.Sprintf("rank 1 pc 0: message size %d out of range", maxMessageBytes*2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkBothWays(t, 4, func(b *Builder) error { c.body(b); return nil })
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// fuzzBody turns fuzz bytes into a Builder body. Every 8-byte record is one
// call: ctl&7 picks it, ctl>>3 shifts the 32-bit signed value, which is a
// size or a duration; rank, op and peer bytes fill the rest. Raw events
// take any op, unknown ones too, and any field values.
func fuzzBody(data []byte, ranks int) func(b *Builder) error {
	return func(b *Builder) error {
		for d := data; len(d) >= 8; d = d[8:] {
			ctl, rank, op, peer := d[0], int(d[1])%ranks, d[2], int(int8(d[3]))
			v := int64(int32(binary.LittleEndian.Uint32(d[4:]))) << (ctl >> 3)
			switch ctl & 7 {
			case 0:
				b.push(rank, Event{Op: Op(op % 8), MPIType: op >> 3, Peer: peer, Bytes: int(v), Dur: sim.Time(v)})
			case 1:
				b.Compute(rank, sim.Time(v))
			case 2:
				b.Send(rank, peer, int(v))
			case 3:
				b.Sendrecv(rank, peer, int(int8(op)), int(v))
			case 4:
				if err := b.AllreduceAlg(collectives.AllreduceAlgorithms()[int(op)%4], int(v)); err != nil {
					return err
				}
			case 5:
				b.Bcast(peer, int(v))
			case 6:
				b.Alltoall(int(v))
			case 7:
				var group []int
				for r := 0; r < ranks; r++ {
					if op>>r&1 != 0 {
						group = append(group, r)
					}
				}
				if err := b.AllreduceGroup(group, collectives.AllreduceAlgorithms()[rank%4], int(v)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// FuzzBuildChecks: Build's check as it counts and Validate over the
// appended trace must reject the same emissions with the same rank, pc and
// reason, accept the same ones with the same programs, and never panic.
func FuzzBuildChecks(f *testing.F) {
	rec := func(ctl, rank, op byte, peer int8, v int32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{ctl, rank, op, byte(peer)}, uint32(v))
	}
	f.Add(byte(4), append(rec(2, 0, 0, 1, 4096), rec(0, 1, byte(OpRecv), 0, 0)...))
	f.Add(byte(2), rec(0, 0, 42, 1, 0))
	f.Add(byte(6), append(rec(1|31<<3, 3, 0, 0, 1<<31-1), rec(1|31<<3, 0, 0, 0, 1<<31-1)...))
	f.Add(byte(5), append(rec(4, 0, 1, 0, -64), rec(6, 2, 0, 0, 512)...))
	f.Add(byte(3), rec(7|2<<3, 1, 0b11100, 0, 1<<30))
	f.Add(byte(1), rec(3, 0, 2, 1, 1024))
	f.Fuzz(func(t *testing.T, n byte, data []byte) {
		if len(data) > 256 {
			return
		}
		checkBothWays(t, 2+int(n%8), fuzzBody(data, 2+int(n%8)))
	})
}
