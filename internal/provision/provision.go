// Package provision implements the "PR-DRB Models" open lines of thesis
// §5.2: using the simulation models beyond routing —
//
//   - Provisioning: "dedicating some specific portions of the network to
//     one application, based specifically on its communication
//     requirements... to predict and accommodate several applications into
//     the network without disturbing each other." The offline analyzer
//     routes a workload's communication matrix over the topology's
//     deterministic paths and reports per-link demand, the saturated links
//     and the subtree/region footprint an application needs.
//
//   - Energy-aware routing: "use the knowledge of future communication
//     patterns to start applying energy-aware policies." The energy model
//     converts measured link occupancy (network.ReadLinks) into an energy
//     estimate and quantifies how much idle-link power a pattern-aware
//     power-gating policy could save.
package provision

import (
	"fmt"
	"sort"
	"strings"

	"prdrb/internal/network"
	"prdrb/internal/phase"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

// LinkDemand is the offline per-link load of one workload.
type LinkDemand struct {
	From  topology.RouterID
	Port  int
	To    topology.RouterID // None when the port exits to a terminal
	Bytes int64
}

// Demand is the provisioning analysis result.
type Demand struct {
	Links []LinkDemand // sorted by Bytes descending
	// TotalBytes is the workload's total routed volume (link-bytes).
	TotalBytes int64
	// UsedLinks / WiredLinks give the application's network footprint.
	UsedLinks, WiredLinks int
	// UsedRouters counts routers any flow passes through.
	UsedRouters int
}

// Analyze routes every point-to-point byte of the trace over the
// topology's deterministic minimal paths (mapping rank i to node i when
// mapping is nil) and accumulates per-link demand.
func Analyze(topo topology.Topology, tr *trace.Trace, mapping []topology.NodeID) (*Demand, error) {
	nodes, _, err := trace.Placement("provision", topo.NumTerminals(), tr.Ranks, mapping)
	if err != nil {
		return nil, err
	}
	m := phase.CommMatrix(tr)
	// Include collective-lowered traffic too: provisioning must cover the
	// full wire load, not only application point-to-point.
	for r := range m {
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if ev.Op != trace.OpSend && ev.Op != trace.OpIsend {
				continue
			}
			if !collective(ev.MPIType) {
				continue
			}
			m[r][ev.Peer] += int64(ev.Bytes)
		}
	}

	loads := map[[2]int]int64{} // (router, port) -> bytes
	routersUsed := map[topology.RouterID]bool{}
	for srcRank := range m {
		for dstRank, bytes := range m[srcRank] {
			if bytes == 0 {
				continue
			}
			src, dst := nodes[srcRank], nodes[dstRank]
			if src == dst {
				continue
			}
			// NIC injection link.
			r, _ := topo.TerminalAttach(src)
			cur := r
			routersUsed[cur] = true
			for hops := 0; ; hops++ {
				if hops > 4*topo.NumRouters() {
					return nil, fmt.Errorf("provision: routing loop %d->%d", src, dst)
				}
				p := topo.NextHop(cur, dst)
				loads[[2]int{int(cur), p}] += bytes
				peer := topo.PortPeer(cur, p)
				if peer.IsTerminal() {
					break
				}
				cur = peer.Router
				routersUsed[cur] = true
			}
		}
	}

	d := &Demand{UsedRouters: len(routersUsed)}
	for key, bytes := range loads {
		from := topology.RouterID(key[0])
		peer := topo.PortPeer(from, key[1])
		to := topology.None
		if peer.IsRouter() {
			to = peer.Router
		}
		d.Links = append(d.Links, LinkDemand{From: from, Port: key[1], To: to, Bytes: bytes})
		d.TotalBytes += bytes
	}
	sort.Slice(d.Links, func(i, j int) bool {
		if d.Links[i].Bytes != d.Links[j].Bytes {
			return d.Links[i].Bytes > d.Links[j].Bytes
		}
		if d.Links[i].From != d.Links[j].From {
			return d.Links[i].From < d.Links[j].From
		}
		return d.Links[i].Port < d.Links[j].Port
	})
	d.UsedLinks = len(d.Links)
	for r := topology.RouterID(0); int(r) < topo.NumRouters(); r++ {
		for p := 0; p < topo.Radix(r); p++ {
			if !topo.PortPeer(r, p).Unwired() {
				d.WiredLinks++
			}
		}
	}
	return d, nil
}

func collective(mpiType uint8) bool {
	switch mpiType {
	case network.MPIBcast, network.MPIReduce, network.MPIAllreduce, network.MPIBarrier, network.MPIAlltoall:
		return true
	}
	return false
}

// FootprintShare is the fraction of wired links the application touches —
// the "smaller network footprint" measure of §4.8.5.
func (d *Demand) FootprintShare() float64 {
	if d.WiredLinks == 0 {
		return 0
	}
	return float64(d.UsedLinks) / float64(d.WiredLinks)
}

// Report renders the provisioning summary.
func (d *Demand) Report(topo topology.Topology, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "footprint: %d/%d links (%.0f%%), %d routers; total routed volume %d bytes\n",
		d.UsedLinks, d.WiredLinks, 100*d.FootprintShare(), d.UsedRouters, d.TotalBytes)
	if top > len(d.Links) {
		top = len(d.Links)
	}
	fmt.Fprintf(&b, "hottest links:\n")
	for _, l := range d.Links[:top] {
		to := "terminal"
		if l.To != topology.None {
			to = topo.RouterLabel(l.To)
		}
		fmt.Fprintf(&b, "  %s.p%d -> %-9s %12d bytes\n", topo.RouterLabel(l.From), l.Port, to, l.Bytes)
	}
	return b.String()
}

// EnergyModel parameterizes the link power estimate.
type EnergyModel struct {
	// ActiveWatts is a link's power while transmitting; IdleWatts while
	// powered but idle (lossless fabrics keep idle links lit unless a
	// power-gating policy intervenes).
	ActiveWatts float64
	IdleWatts   float64
}

// DefaultEnergyModel uses figures in the range published for QDR-class
// interconnect PHYs (~1 W idle, ~2 W active per link direction).
func DefaultEnergyModel() EnergyModel { return EnergyModel{ActiveWatts: 2.0, IdleWatts: 1.0} }

// EnergyReport summarizes a finished run's link energy.
type EnergyReport struct {
	Elapsed sim.Time
	// TotalJoules under the always-on model.
	TotalJoules float64
	// ActiveJoules is the part spent actually transmitting.
	ActiveJoules float64
	// GatedJoules is the estimate when idle links are power-gated (the
	// energy-aware policy's upper bound): idle time costs nothing.
	GatedJoules float64
	// IdleLinks counts wired links that never transmitted.
	IdleLinks int
	// Links counts wired links.
	Links int
}

// Energy folds measured link occupancy — the rows of a link table, one per
// wired link — into the model.
func Energy(links []network.LinkStat, elapsed sim.Time, m EnergyModel) EnergyReport {
	rep := EnergyReport{Elapsed: elapsed}
	if elapsed <= 0 {
		return rep
	}
	secs := elapsed.Seconds()
	for _, l := range links {
		rep.Links++
		busy := sim.Time(l.BusyNs).Seconds()
		if busy > secs {
			busy = secs
		}
		idle := secs - busy
		rep.ActiveJoules += m.ActiveWatts * busy
		rep.TotalJoules += m.ActiveWatts*busy + m.IdleWatts*idle
		rep.GatedJoules += m.ActiveWatts * busy
		if l.BusyNs == 0 {
			rep.IdleLinks++
		}
	}
	return rep
}

// SavingsPct is the energy saved by gating idle time, in percent.
func (r EnergyReport) SavingsPct() float64 {
	if r.TotalJoules == 0 {
		return 0
	}
	return 100 * (r.TotalJoules - r.GatedJoules) / r.TotalJoules
}

// String renders the report.
func (r EnergyReport) String() string {
	return fmt.Sprintf("links=%d idle=%d elapsed=%v energy=%.3fJ active=%.3fJ gated=%.3fJ savings=%.1f%%",
		r.Links, r.IdleLinks, r.Elapsed, r.TotalJoules, r.ActiveJoules, r.GatedJoules, r.SavingsPct())
}
