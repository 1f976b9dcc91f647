package network

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func wireFields(p *Packet) *Packet {
	// Only the fields the wire format carries.
	q := &Packet{
		Type: p.Type, Src: p.Src, Dst: p.Dst,
		Waypoints: p.Waypoints, HeaderIdx: p.HeaderIdx,
		PathLatency: p.PathLatency, Predictive: p.Predictive, Final: p.Final,
		MPIType: p.MPIType, MPISeq: p.MPISeq, MSPIndex: p.MSPIndex,
	}
	if c := p.cold; c != nil {
		q.SetPredictiveHeader(c.reportRouter, c.contending)
	}
	return q
}

func TestWireRoundTripData(t *testing.T) {
	p := &Packet{
		Type: DataPacket, Src: 3, Dst: 61,
		Waypoints: topology.Path{17, 42}, HeaderIdx: 1,
		PathLatency: 123456, Final: true,
		MPIType: MPISend, MPISeq: 99, MSPIndex: 2,
		cold: &packetCold{reportRouter: 7, contending: []FlowKey{{3, 61}, {5, 61}}},
	}
	buf, err := EncodeHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireFields(got), wireFields(p)) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", wireFields(got), wireFields(p))
	}
}

// TestWireRoundTripAck round-trips ACK headers with the narrowed fields at
// the edges of their wire fields: the MSP index over its whole int32 range
// (-1 marks a router-originated ACK) and every 2-bit Header_id.
func TestWireRoundTripAck(t *testing.T) {
	for _, msp := range []int32{-1, 0, math.MaxInt32, math.MinInt32} {
		for hdr := uint8(0); hdr <= headerIdxMask; hdr++ {
			p := &Packet{
				Type: AckPacket, Src: 61, Dst: 3, HeaderIdx: hdr,
				PathLatency: 5_000_000, Predictive: true,
				MPIType: MPIAllreduce, MPISeq: 1, MSPIndex: msp,
			}
			buf, err := EncodeHeader(p)
			if err != nil {
				t.Fatalf("MSP index %d, Header_id %d: %v", msp, hdr, err)
			}
			got, err := DecodeHeader(buf)
			if err != nil {
				t.Fatalf("MSP index %d, Header_id %d: %v", msp, hdr, err)
			}
			if !reflect.DeepEqual(wireFields(got), wireFields(p)) {
				t.Fatalf("ACK round trip mismatch:\n got %+v\nwant %+v", wireFields(got), wireFields(p))
			}
		}
	}
}

func TestWireRejectsOversize(t *testing.T) {
	p := &Packet{Waypoints: topology.Path{1, 2, 3}}
	if _, err := EncodeHeader(p); err == nil {
		t.Fatal("3 waypoints accepted by a 2-slot format")
	}
	p = &Packet{HeaderIdx: 5}
	if _, err := EncodeHeader(p); err == nil {
		t.Fatal("Header_id 5 accepted by a 2-bit field")
	}
	p = &Packet{cold: &packetCold{contending: make([]FlowKey, 40)}}
	if _, err := EncodeHeader(p); err == nil {
		t.Fatal("40 contending flows accepted")
	}
}

func TestWireDecodeErrors(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
	p := &Packet{Src: 1, Dst: 2}
	buf, _ := EncodeHeader(p)
	buf[26] = 1 // reserved MUST be zero
	if _, err := DecodeHeader(buf); err == nil {
		t.Fatal("nonzero reserved accepted")
	}
	p2 := &Packet{Src: 1, Dst: 2, cold: &packetCold{contending: []FlowKey{{1, 2}}}}
	buf2, _ := EncodeHeader(p2)
	if _, err := DecodeHeader(buf2[:len(buf2)-3]); err == nil {
		t.Fatal("truncated predictive header accepted")
	}
	buf3, _ := EncodeHeader(p2)
	buf3[wireFixedLen] = 0x11 // corrupt option marker
	if _, err := DecodeHeader(buf3); err == nil {
		t.Fatal("bad option marker accepted")
	}
}

// Property: any in-capacity packet round-trips exactly.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(src, dst uint16, w1, w2 uint16, hasW1, hasW2 bool, hdr uint8,
		lat uint32, pred, final, isAck bool, mpiType uint8, seq uint32,
		mspIdx int32, nFlows uint8) bool {
		p := &Packet{
			Src: topology.NodeID(src), Dst: topology.NodeID(dst),
			HeaderIdx:   hdr % 4,
			PathLatency: sim.Time(lat),
			Predictive:  pred, Final: final,
			MPIType: mpiType, MPISeq: seq, MSPIndex: mspIdx,
		}
		if isAck {
			p.Type = AckPacket
		}
		if hasW1 {
			p.Waypoints = append(p.Waypoints, topology.RouterID(w1))
		}
		if hasW2 {
			p.Waypoints = append(p.Waypoints, topology.RouterID(w2))
		}
		var flows []FlowKey
		for i := 0; i < int(nFlows%8); i++ {
			flows = append(flows, FlowKey{topology.NodeID(i), topology.NodeID(i + 1)})
		}
		if len(flows) > 0 {
			p.SetPredictiveHeader(0, flows)
		}
		buf, err := EncodeHeader(p)
		if err != nil {
			return false
		}
		got, err := DecodeHeader(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(wireFields(got), wireFields(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMPITypeName pins the names reports print for the MPI_type header
// field: one per call of the block, "?" past MPIAlltoall, where the
// reduce-scatter and allgather values (13, 14) stood.
func TestMPITypeName(t *testing.T) {
	want := []string{"none", "send", "isend", "recv", "irecv", "wait", "waitall", "bcast", "reduce", "allreduce", "barrier", "sendrecv", "alltoall"}
	if len(want) != int(MPIAlltoall)+1 {
		t.Fatalf("the MPI_type block ends at %d, want %d names", MPIAlltoall, len(want))
	}
	for v := 0; v < 256; v++ {
		name := "?"
		if v < len(want) {
			name = want[v]
		}
		if got := MPITypeName(uint8(v)); got != name {
			t.Errorf("MPITypeName(%d) = %q, want %q", v, got, name)
		}
	}
}
