package network

import (
	"fmt"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Per-output-port congestion accounting (the fabric "weather map"). Each
// port optionally carries a congPort accumulating, in virtual time:
//
//   - per-VC serialization (busy) time — where the bandwidth went,
//   - queue-occupancy integral (byte·ns) and summed buffer waits — where
//     packets sat,
//   - per-VC credit-stall time — how long a full downstream buffer held
//     the VC's credit (backpressure made visible).
//
// Memory is O(ports · VCs) with VCs <= 8, i.e. O(ports). Everything is
// plain per-shard state mutated only from that shard's engine callbacks;
// aggregation happens at quiescent points (serial engine events /
// ShardGroup barriers — see observe.go) through read-only folds, so the
// sampler never perturbs execution. Disabled runs carry a nil congPort:
// every hook is one predictable branch and the goldens stay byte
// identical.

// Link classes for the weather-map breakdown. "Global" marks wraparound
// links (dragonfly global links, torus datelines); everything else
// router-to-router is "local". Terminal links reach NICs; injection links
// are the NIC-side source queues.
const (
	LinkClassLocal = iota
	LinkClassGlobal
	LinkClassTerminal
	LinkClassInjection
	NumLinkClasses
)

// LinkClassNames maps link classes to report labels.
var LinkClassNames = [NumLinkClasses]string{"local", "global", "terminal", "injection"}

// congPort is one port's congestion accumulator (nil when disabled).
type congPort struct {
	// waitNs sums buffer waits folded at dequeue; deqPkts counts them.
	waitNs  int64
	deqPkts int64
	// Queue-occupancy integral: occInt accumulates occBytes·dt up to
	// occLast; current occupancy is occBytes.
	occBytes int64
	occLast  sim.Time
	occInt   int64
	// vcBusyNs is per-VC serialization time; vcStallNs per-VC closed
	// credit-stall time, with stallFrom the open stall start (-1 = none).
	vcBusyNs  []int64
	vcStallNs []int64
	stallFrom []sim.Time
}

func newCongPort(numVC int) *congPort {
	cp := &congPort{
		vcBusyNs:  make([]int64, numVC),
		vcStallNs: make([]int64, numVC),
		stallFrom: make([]sim.Time, numVC),
	}
	for i := range cp.stallFrom {
		cp.stallFrom[i] = -1
	}
	return cp
}

// foldOcc advances the occupancy integral to now.
func (cp *congPort) foldOcc(now sim.Time) {
	cp.occInt += cp.occBytes * int64(now-cp.occLast)
	cp.occLast = now
}

// enqueued accounts a packet entering the port's buffers.
func (cp *congPort) enqueued(now sim.Time, bytes int) {
	cp.foldOcc(now)
	cp.occBytes += int64(bytes)
}

// dequeued accounts a packet leaving the buffers after wait.
func (cp *congPort) dequeued(now sim.Time, bytes int, wait sim.Time) {
	cp.foldOcc(now)
	cp.occBytes -= int64(bytes)
	cp.waitNs += int64(wait)
	cp.deqPkts++
}

// occIntAt returns the occupancy integral folded to now without mutating
// state (the quiescent-read form).
func (cp *congPort) occIntAt(now sim.Time) int64 {
	return cp.occInt + cp.occBytes*int64(now-cp.occLast)
}

// stallNsAt returns VC vc's total stall time including an open stall
// folded to now, without mutating state.
func (cp *congPort) stallNsAt(vc int, now sim.Time) int64 {
	s := cp.vcStallNs[vc]
	if cp.stallFrom[vc] >= 0 {
		s += int64(now - cp.stallFrom[vc])
	}
	return s
}

// linkClass classifies the port for the weather map.
func (o *outPort) linkClass() int {
	switch {
	case o.router < 0:
		return LinkClassInjection
	case o.linkDim < 0:
		return LinkClassTerminal
	case o.link&linkWrap != 0:
		return LinkClassGlobal
	default:
		return LinkClassLocal
	}
}

// CongestionEnabled reports whether per-port congestion accounting is on.
func (n *Network) CongestionEnabled() bool { return n.Cfg.Congestion }

// CongClassTotals is one link class's fabric-wide congestion aggregate.
type CongClassTotals struct {
	// Links counts wired ports of the class.
	Links int
	// BusyNs sums link serialization time; TxBytes transmitted payload.
	BusyNs  int64
	TxBytes int64
	// WaitNs sums buffer waits; DeqPkts counts dequeues.
	WaitNs  int64
	DeqPkts int64
	// StallNs sums credit-stall time; OccByteNs is the queue-occupancy
	// integral; QueuedBytes the instantaneous occupancy at snapshot time.
	StallNs     int64
	OccByteNs   int64
	QueuedBytes int64
}

// CongLinkStat is one port's cumulative congestion account.
type CongLinkStat struct {
	// Router is the owning router, or -1 for a NIC injection port (Port
	// then holds the node id).
	Router topology.RouterID
	Port   int
	Class  int
	// Cumulative virtual-time accounts, as in CongClassTotals.
	BusyNs      int64
	TxBytes     int64
	WaitNs      int64
	DeqPkts     int64
	StallNs     int64
	OccByteNs   int64
	QueuedBytes int64
}

// CongSnapshot is the fabric congestion state folded to AtNs.
type CongSnapshot struct {
	AtNs    int64
	Classes [NumLinkClasses]CongClassTotals
	// VCBusyNs / VCStallNs break serialization and credit-stall time down
	// by physical virtual channel across the whole fabric (the VC half of
	// the weather map; the ACK class is n.isAckVC).
	VCBusyNs  []int64
	VCStallNs []int64
	// AckBusyNs is the summed serialization time of the ACK-class VCs —
	// the notification overhead input of the latency attribution.
	AckBusyNs int64
}

// congFold folds one port into the snapshot.
func (s *CongSnapshot) congFold(n *Network, o *outPort, now sim.Time) {
	if o.peer == nil {
		return
	}
	cl := &s.Classes[o.linkClass()]
	cl.Links++
	cl.BusyNs += int64(o.busyNs)
	cl.TxBytes += o.txBytes
	cp := o.congestion()
	if cp == nil {
		return
	}
	cl.WaitNs += cp.waitNs
	cl.DeqPkts += cp.deqPkts
	cl.OccByteNs += cp.occIntAt(now)
	cl.QueuedBytes += cp.occBytes
	for vc := range cp.vcBusyNs {
		s.VCBusyNs[vc] += cp.vcBusyNs[vc]
		st := cp.stallNsAt(vc, now)
		s.VCStallNs[vc] += st
		cl.StallNs += st
		if n.isAckVC(vc) {
			s.AckBusyNs += cp.vcBusyNs[vc]
		}
	}
}

// CongSnapshotAt aggregates every port's congestion account folded to
// now. Quiescent-read only (barrier tasks / drained serial engine): it
// walks all shards' ports without mutating anything.
func (n *Network) CongSnapshotAt(now sim.Time) CongSnapshot {
	s := CongSnapshot{
		AtNs:      int64(now),
		VCBusyNs:  make([]int64, n.numVC),
		VCStallNs: make([]int64, n.numVC),
	}
	for _, rt := range n.Routers {
		for i := range rt.out {
			s.congFold(n, &rt.out[i], now)
		}
	}
	for _, nic := range n.NICs {
		s.congFold(n, nic.out, now)
	}
	return s
}

// CongLinkStats returns every wired port's cumulative congestion account
// folded to now, router ports in (router, port) order followed by NIC
// injection ports in node order — the deterministic per-link table behind
// the weather-map report. Quiescent-read only.
func (n *Network) CongLinkStats(now sim.Time) []CongLinkStat {
	var out []CongLinkStat
	add := func(o *outPort, router topology.RouterID, port int) {
		if o.peer == nil {
			return
		}
		ls := CongLinkStat{
			Router: router, Port: port, Class: o.linkClass(),
			BusyNs: int64(o.busyNs), TxBytes: o.txBytes,
		}
		if cp := o.congestion(); cp != nil {
			ls.WaitNs = cp.waitNs
			ls.DeqPkts = cp.deqPkts
			ls.OccByteNs = cp.occIntAt(now)
			ls.QueuedBytes = cp.occBytes
			for vc := range cp.vcStallNs {
				ls.StallNs += cp.stallNsAt(vc, now)
			}
		}
		out = append(out, ls)
	}
	for _, rt := range n.Routers {
		for p := range rt.out {
			add(&rt.out[p], rt.ID, p)
		}
	}
	for _, nic := range n.NICs {
		add(nic.out, topology.None, int(nic.ID))
	}
	return out
}

// AttachFlightRecorders wires one flight recorder per shard (entries may
// be nil). Recorders receive cold-path events (drops, stall onsets, fault
// transitions, predictive notifications, metapath changes) from the
// shard's components; the runner's congestion sampler snapshots them when
// an anomaly trigger fires.
func (n *Network) AttachFlightRecorders(recs []*telemetry.FlightRecorder) {
	if len(recs) != len(n.Shards) {
		panic(fmt.Sprintf("network: %d flight recorders for %d shards", len(recs), len(n.Shards)))
	}
	for i, sh := range n.Shards {
		sh.Rec = recs[i]
	}
}

// FlightRecorders returns the per-shard recorders (entries may be nil).
func (n *Network) FlightRecorders() []*telemetry.FlightRecorder {
	out := make([]*telemetry.FlightRecorder, len(n.Shards))
	for i, sh := range n.Shards {
		out[i] = sh.Rec
	}
	return out
}

// RecorderForNode returns the flight recorder a node's components must
// record into (nil when the recorder is off).
func (n *Network) RecorderForNode(node topology.NodeID) *telemetry.FlightRecorder {
	return n.NICs[node].sh.Rec
}
