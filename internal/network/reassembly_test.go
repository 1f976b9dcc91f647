package network_test

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// msgLog is what one destination NIC saw of one message: its fragments'
// arrivals and bytes, whether a later-issued fragment overtook an earlier
// one, and the OnMessage calls it made.
type msgLog struct {
	frags, bytes int
	lastID       uint64
	reordered    bool
	// fired counts the OnMessage calls, firedAt the fragments arrived at
	// the last one, firedBytes its bytes.
	fired, firedAt, firedBytes int
}

// Six-fragment messages from every node to random others, on pr-drb with
// its metapaths open, serial and on two shards: fragments of one message
// overtake each other and several messages reassemble at one NIC at once,
// yet every message fires OnMessage once, after its last fragment, with
// the bytes of all its fragments.
func TestReassemblyOutOfOrder(t *testing.T) {
	topo, err := topology.ByName("ft-4-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		s, err := runner.New(runner.Experiment{Topology: topo, Policy: runner.PolicyPRDRB, Seed: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// One log per destination NIC: a NIC's arrivals and OnMessage
		// calls all run on its own shard.
		logs := make([]map[uint64]*msgLog, len(s.Net.NICs))
		open, maxOpen := make([]int, len(logs)), make([]int, len(logs))
		for i := range logs {
			logs[i] = make(map[uint64]*msgLog)
		}
		network.TapArrivals(s.Net, func(pkt *network.Packet) {
			m := logs[pkt.Dst][pkt.MsgID]
			if m == nil {
				m = &msgLog{}
				logs[pkt.Dst][pkt.MsgID] = m
				open[pkt.Dst]++
				maxOpen[pkt.Dst] = max(maxOpen[pkt.Dst], open[pkt.Dst])
			}
			m.frags++
			m.bytes += pkt.SizeBytes
			m.reordered = m.reordered || pkt.ID < m.lastID
			m.lastID = max(m.lastID, pkt.ID)
		})
		for i, nic := range s.Net.NICs {
			nic.OnMessage = func(_ *sim.Engine, _ topology.NodeID, msg uint64, bytes int, _ uint8, _ uint32) {
				m := logs[i][msg]
				if m == nil {
					m = &msgLog{}
					logs[i][msg] = m
				}
				m.fired++
				m.firedAt, m.firedBytes = m.frags, bytes
				open[i]--
			}
		}
		if err := s.InstallPattern(runner.PatternSpec{Pattern: "uniform", RateMbps: 1600,
			End: 400 * sim.Microsecond, PacketBytes: 5*1024 + 300}); err != nil {
			t.Fatal(err)
		}
		s.Execute(10 * sim.Millisecond)
		msgs, reordered, most := 0, 0, 0
		for i := range logs {
			most = max(most, maxOpen[i])
			for id, m := range logs[i] {
				msgs++
				if m.reordered {
					reordered++
				}
				if m.fired != 1 || m.firedAt != 6 || m.firedBytes != m.bytes {
					t.Errorf("shards=%d: node %d message %d: %d OnMessage calls, the last after %d of 6 fragments with %d B, want 1 with %d B",
						shards, i, id, m.fired, m.firedAt, m.firedBytes, m.bytes)
				}
			}
		}
		if msgs == 0 || reordered == 0 || most < 2 {
			t.Fatalf("shards=%d: %d messages, %d with fragments out of order, at most %d reassembling at one NIC: the run does not exercise reassembly",
				shards, msgs, reordered, most)
		}
		t.Logf("shards=%d: %d messages, %d out of order, up to %d at once", shards, msgs, reordered, most)
	}
}
