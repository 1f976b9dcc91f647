package network

import (
	"encoding/binary"
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Wire encoding of the PR-DRB packet formats (§3.3.1, Figs 3.16-3.18).
//
// The simulator moves *Packet values directly for speed, but the formats
// are implemented faithfully so header capacity constraints (two
// intermediate nodes, n contending flows, flag bits) are honoured and can
// be tested: a packet that cannot round-trip through its wire format would
// not be transmittable by the real router.
//
// Layout (all multi-byte fields big-endian, "integer-size" = 4 bytes):
//
//	word 0: Source            (4B)
//	word 1: Intermediate 1    (4B, ^0 when absent)
//	word 2: Intermediate 2    (4B, ^0 when absent)
//	word 3: Destination       (4B)
//	word 4: Path latency      (8B, ns)
//	word 6: flags (P,F,T + Header_id, 1B) | MPI_type (1B) | reserved (2B)
//	word 7: MPI_sequence      (4B)
//	word 8: MSP index         (4B, two's complement; -1 on a router ACK)
//
// — wireFixedLen bytes — followed, when the predictive bit of the *format* (an options marker
// byte) is present, by the predictive header:
//
//	type (1B) | opt len (1B) | router id (4B) | reserved (2B)
//	contending flows: n * (src 4B + dst 4B)
const (
	wireFixedLen  = 36
	wireOptMarker = 0xA5
	wireAbsent    = ^uint32(0)

	flagPredictive = 1 << 7
	flagFinal      = 1 << 6
	flagAck        = 1 << 5
	headerIdxMask  = 0x03
)

// EncodeHeader serializes the packet's header (everything but payload
// data). It fails if the packet exceeds format capacity.
func EncodeHeader(p *Packet) ([]byte, error) {
	if len(p.Waypoints) > maxWaypoints {
		return nil, fmt.Errorf("network: %d waypoints exceed the two intermediate-node fields", len(p.Waypoints))
	}
	if p.HeaderIdx > headerIdxMask {
		return nil, fmt.Errorf("network: Header_id %d exceeds the 2-bit field", p.HeaderIdx)
	}
	buf := make([]byte, wireFixedLen, wireFixedLen+8+8*len(p.Contending()))
	be := binary.BigEndian
	be.PutUint32(buf[0:], uint32(p.Src))
	for i := 0; i < maxWaypoints; i++ {
		v := wireAbsent
		if i < len(p.Waypoints) {
			v = uint32(p.Waypoints[i])
		}
		be.PutUint32(buf[4+4*i:], v)
	}
	be.PutUint32(buf[12:], uint32(p.Dst))
	be.PutUint64(buf[16:], uint64(p.PathLatency))
	var flags byte
	if p.Predictive {
		flags |= flagPredictive
	}
	if p.Final {
		flags |= flagFinal
	}
	if p.Type == AckPacket {
		flags |= flagAck
	}
	flags |= p.HeaderIdx
	buf[24] = flags
	buf[25] = p.MPIType
	// buf[26:28] reserved: MUST be zero (§3.3.1).
	be.PutUint32(buf[28:], p.MPISeq)
	be.PutUint32(buf[32:], uint32(p.MSPIndex))

	if c := p.cold; c != nil && (len(c.contending) > 0 || c.reportRouter != 0) {
		n := len(c.contending)
		if n > 28 {
			return nil, fmt.Errorf("network: %d contending flows exceed option capacity", n)
		}
		// marker(1) + len(1) + router(4) + reserved(2) + n flows (8 each)
		opt := make([]byte, 8+8*n)
		opt[0] = wireOptMarker
		opt[1] = byte(8*n + 1) // Opt Data Len per Fig 3.18: integer_size*n + 1
		be.PutUint32(opt[2:], uint32(c.reportRouter))
		// opt[6:8] reserved.
		for i, f := range c.contending {
			be.PutUint32(opt[8+8*i:], uint32(f.Src))
			be.PutUint32(opt[12+8*i:], uint32(f.Dst))
		}
		buf = append(buf, opt...)
	}
	return buf, nil
}

// DecodeHeader parses a header produced by EncodeHeader.
func DecodeHeader(buf []byte) (*Packet, error) {
	if len(buf) < wireFixedLen {
		return nil, fmt.Errorf("network: header too short (%d bytes)", len(buf))
	}
	be := binary.BigEndian
	p := &Packet{}
	p.Src = topology.NodeID(be.Uint32(buf[0:]))
	for i := 0; i < maxWaypoints; i++ {
		v := be.Uint32(buf[4+4*i:])
		if v != wireAbsent {
			p.Waypoints = append(p.Waypoints, topology.RouterID(v))
		}
	}
	p.Dst = topology.NodeID(be.Uint32(buf[12:]))
	p.PathLatency = sim.Time(be.Uint64(buf[16:]))
	flags := buf[24]
	p.Predictive = flags&flagPredictive != 0
	p.Final = flags&flagFinal != 0
	if flags&flagAck != 0 {
		p.Type = AckPacket
	}
	p.HeaderIdx = flags & headerIdxMask
	p.MPIType = buf[25]
	if buf[26] != 0 || buf[27] != 0 {
		return nil, fmt.Errorf("network: reserved bytes not zero")
	}
	p.MPISeq = be.Uint32(buf[28:])
	p.MSPIndex = int32(be.Uint32(buf[32:]))

	rest := buf[wireFixedLen:]
	if len(rest) == 0 {
		return p, nil
	}
	if rest[0] != wireOptMarker {
		return nil, fmt.Errorf("network: bad option marker 0x%02x", rest[0])
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("network: truncated predictive header")
	}
	if rest[6] != 0 || rest[7] != 0 {
		return nil, fmt.Errorf("network: option reserved bytes not zero")
	}
	flows := rest[8:]
	if len(flows)%8 != 0 {
		return nil, fmt.Errorf("network: predictive flow list length %d not a multiple of 8", len(flows))
	}
	if len(flows)/8 > 28 {
		// Same capacity bound EncodeHeader enforces: anything beyond it
		// could never have been emitted by a conforming router.
		return nil, fmt.Errorf("network: %d contending flows exceed option capacity", len(flows)/8)
	}
	if int(rest[1]) != 8*(len(flows)/8)+1 {
		return nil, fmt.Errorf("network: option length byte %d does not match %d flows", rest[1], len(flows)/8)
	}
	c := p.coldState()
	c.reportRouter = topology.RouterID(be.Uint32(rest[2:]))
	for i := 0; i+8 <= len(flows); i += 8 {
		c.contending = append(c.contending, FlowKey{
			Src: topology.NodeID(be.Uint32(flows[i:])),
			Dst: topology.NodeID(be.Uint32(flows[i+4:])),
		})
	}
	return p, nil
}
