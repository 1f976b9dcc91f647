package core

import (
	"testing"
	"testing/quick"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Property: a controller fed arbitrary ACK sequences never panics, never
// exceeds MaxPaths, always keeps the direct path at index 0 with unique
// path IDs, and keeps L(MP) positive.
func TestControllerInvariantsUnderRandomAcks(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	f := func(seed uint64, script []uint32) bool {
		eng := sim.NewEngine()
		cfg := PRDRBConfig()
		cfg.OpenInterval = 0
		cfg.Watchdog = 50 * sim.Microsecond
		cfg.TrendHorizon = 100 * sim.Microsecond
		ctl := newController(0, topo, eng, cfg, sim.NewRNG(seed))
		rng := sim.NewRNG(seed ^ 0xfeed)

		for _, op := range script {
			dst := topology.NodeID(1 + op%63)
			switch op % 5 {
			case 0, 1: // high-latency ACK with contending flows
				ctl.HandleAck(eng, withFlows(&network.Packet{
					Type: network.AckPacket, Src: dst, Dst: 0,
					MSPIndex:    int32(op % 7),
					PathLatency: sim.Time(op%200) * sim.Microsecond,
				}, []network.FlowKey{
					{Src: topology.NodeID(op % 64), Dst: dst},
					{Src: topology.NodeID((op * 7) % 64), Dst: dst},
				}))
			case 2: // low-latency ACK
				ctl.HandleAck(eng, &network.Packet{
					Type: network.AckPacket, Src: dst, Dst: 0,
					MSPIndex: 0, PathLatency: sim.Time(op % 500),
				})
			case 3: // router-based predictive ACK
				ctl.HandleAck(eng, withFlows(&network.Packet{
					Type: network.AckPacket, Src: dst, Dst: 0,
					MSPIndex: -1, Predictive: true,
					PathLatency: sim.Time(op%100) * sim.Microsecond,
				}, []network.FlowKey{{Src: 5, Dst: dst}}))
			case 4: // injection
				pkt := &network.Packet{Type: network.DataPacket, Src: 0, Dst: dst}
				ctl.PrepareInjection(eng, pkt)
				if len(pkt.Waypoints) > 2 {
					return false
				}
			}
			// Advance time pseudo-randomly (also fires watchdogs).
			eng.Schedule(eng.Now()+sim.Time(rng.Intn(30))*sim.Microsecond, func(*sim.Engine) {})
			eng.Run(eng.Now() + 31*sim.Microsecond)

			mp := ctl.find(dst)
			if mp == nil {
				continue
			}
			var one [1]pathState
			paths := mp.states(&one)
			if len(paths) > cfg.MaxPaths {
				return false
			}
			if len(paths[0].path) != 0 || paths[0].id != 0 {
				return false // direct path must stay at index 0
			}
			seen := map[int32]bool{}
			for i := range paths {
				if seen[paths[i].id] {
					return false
				}
				seen[paths[i].id] = true
			}
			if mp.latency(float64(cfg.LatencyFloor)) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: solution DB lookups never return entries below the similarity
// bound, and Save never grows a destination's list beyond MaxPerDst.
func TestSolutionDBInvariants(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		db := NewSolutionDB()
		db.MaxPerDst = 8
		rng := sim.NewRNG(seed)
		for _, op := range ops {
			dst := int(op % 5)
			var flows []network.FlowKey
			for i := 0; i < 1+int(op%6); i++ {
				flows = append(flows, network.FlowKey{
					Src: topology.NodeID(rng.Intn(16)), Dst: topology.NodeID(dst),
				})
			}
			sig := NewSignature(flows, 8)
			if op%3 == 0 {
				db.Save(dst, sig, []pathState{{id: 0}}, 0.8, sim.Time(op))
			} else if got := db.Lookup(dst, sig, 0.8); got != nil {
				if Similarity(sig, got.Sig) < 0.8 {
					return false
				}
			}
			if len(db.perDst[dst]) > db.MaxPerDst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
