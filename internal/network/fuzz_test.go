package network

import (
	"bytes"
	"math"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// FuzzDecodeHeader drives the wire parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode and re-decode to the
// same header (idempotent round trip).
func FuzzDecodeHeader(f *testing.F) {
	// Seed corpus: valid headers of each flavour plus mutations.
	seeds := []*Packet{
		{Type: DataPacket, Src: 1, Dst: 2},
		{Type: DataPacket, Src: 3, Dst: 61, Waypoints: topology.Path{17, 42}, HeaderIdx: 1,
			PathLatency: 123456, Final: true, MPIType: MPISend, MPISeq: 99, MSPIndex: 2,
			cold: &packetCold{reportRouter: 7, contending: []FlowKey{{Src: 3, Dst: 61}, {Src: 5, Dst: 61}}}},
		{Type: AckPacket, Src: 61, Dst: 3, Predictive: true, MSPIndex: -1, PathLatency: 5_000_000},
		{Type: AckPacket, Src: 2, Dst: 1, HeaderIdx: 3, MSPIndex: math.MaxInt32},
	}
	for _, p := range seeds {
		buf, err := EncodeHeader(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 50))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeHeader(data)
		if err != nil {
			return // rejected: fine, as long as no panic
		}
		// Accepted headers must round-trip stably.
		buf2, err := EncodeHeader(p)
		if err != nil {
			t.Fatalf("decoded header does not re-encode: %v (%+v)", err, p)
		}
		p2, err := DecodeHeader(buf2)
		if err != nil {
			t.Fatalf("re-encoded header does not re-decode: %v", err)
		}
		if p.Src != p2.Src || p.Dst != p2.Dst || p.Type != p2.Type || p.HeaderIdx != p2.HeaderIdx ||
			p.MSPIndex != p2.MSPIndex || p.PathLatency != p2.PathLatency || len(p.Contending()) != len(p2.Contending()) {
			t.Fatalf("unstable round trip:\n %+v\n %+v", p, p2)
		}
	})
}

// FuzzTraceReader is in internal/trace; this fuzz covers the network side
// of untrusted input. A quick sanity unit test keeps the harness hot even
// when not fuzzing.
func TestDecodeHeaderArbitraryBytesNoPanic(t *testing.T) {
	rng := sim.NewRNG(9)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rng.Uint64())
		}
		_, _ = DecodeHeader(buf) // must not panic
	}
}
