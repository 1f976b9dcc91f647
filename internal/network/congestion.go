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

// LinkAccounts are a link's cumulative virtual-time accounts, or their
// sum over a link class. BusyNs and TxBytes are kept on every run; the
// rest only with congestion accounting on.
type LinkAccounts struct {
	// BusyNs sums link serialization time; TxBytes transmitted payload.
	BusyNs  int64
	TxBytes int64
	// WaitNs sums buffer waits; DeqPkts counts dequeues.
	WaitNs  int64
	DeqPkts int64
	// StallNs sums credit-stall time; OccByteNs is the queue-occupancy
	// integral; QueuedBytes the instantaneous occupancy.
	StallNs     int64
	OccByteNs   int64
	QueuedBytes int64
}

func (a *LinkAccounts) add(b *LinkAccounts) {
	a.BusyNs += b.BusyNs
	a.TxBytes += b.TxBytes
	a.WaitNs += b.WaitNs
	a.DeqPkts += b.DeqPkts
	a.StallNs += b.StallNs
	a.OccByteNs += b.OccByteNs
	a.QueuedBytes += b.QueuedBytes
}

// LinkStat is one wired output port's row of the link table.
type LinkStat struct {
	// Router is the owning router, or -1 for a NIC injection port (Port
	// then holds the node id).
	Router topology.RouterID
	Port   int
	Class  int
	LinkAccounts
}

// ClassStat sums one link class's rows.
type ClassStat struct {
	Links int
	LinkAccounts
}

// LinkTable is the fabric's link state folded to AtNs: one row per wired
// port — router ports in (router, port) order, then NIC injection ports in
// node order — with the per-class and per-VC totals of the same walk.
type LinkTable struct {
	AtNs    int64
	Links   []LinkStat
	Classes [NumLinkClasses]ClassStat
	// VCBusyNs / VCStallNs break serialization and credit-stall time down
	// by physical virtual channel across the whole fabric (the ACK class
	// is n.isAckVC); AckBusyNs sums the ACK-class VCs' serialization — the
	// notification overhead input of the latency attribution.
	VCBusyNs  []int64
	VCStallNs []int64
	AckBusyNs int64
}

// ReadLinks folds every wired port's accounts to now into t in one walk,
// reusing t's storage, so a caller that keeps its table allocates nothing
// after the first call. Quiescent-read only (barrier hooks / a drained or
// event-context serial engine): it mutates no fabric state.
func (n *Network) ReadLinks(now sim.Time, t *LinkTable) {
	*t = LinkTable{
		AtNs:      int64(now),
		Links:     t.Links[:0],
		VCBusyNs:  append(t.VCBusyNs[:0], make([]int64, n.numVC)...),
		VCStallNs: append(t.VCStallNs[:0], make([]int64, n.numVC)...),
	}
	nic := 0
	n.eachPort(func(o *outPort) {
		ls := LinkStat{Router: topology.RouterID(o.router), Port: int(o.port), Class: o.linkClass()}
		if o.router < 0 {
			ls.Port = nic
			nic++
		}
		if o.peer == nil {
			return
		}
		ls.BusyNs, ls.TxBytes = int64(o.busyNs), o.txBytes
		if cp := o.congestion(); cp != nil {
			ls.WaitNs, ls.DeqPkts = cp.waitNs, cp.deqPkts
			ls.OccByteNs, ls.QueuedBytes = cp.occIntAt(now), cp.occBytes
			for vc, busy := range cp.vcBusyNs {
				st := cp.stallNsAt(vc, now)
				ls.StallNs += st
				t.VCBusyNs[vc] += busy
				t.VCStallNs[vc] += st
				if n.isAckVC(vc) {
					t.AckBusyNs += busy
				}
			}
		}
		cl := &t.Classes[ls.Class]
		cl.Links++
		cl.add(&ls.LinkAccounts)
		t.Links = append(t.Links, ls)
	})
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
