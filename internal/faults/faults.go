// Package faults is the scheduled fault-injection subsystem: a Plan of
// timed fault events (hard link failures, switch failures, transient
// bandwidth degradation, flapping links, later repair) applied to a
// running network through the deterministic event engine.
//
// The paper's evaluation (thesis ch. 4) perturbs only the *traffic* — the
// topology stays permanently healthy — so the speculative path machinery
// is never exercised against link or switch loss. This package adds the
// degraded-fabric scenario family: every plan is either written explicitly
// or generated from a seeded sim.RNG, so a fault run is exactly as
// reproducible as a healthy one, and convergence-after-failure becomes a
// measurable quantity (the recovery-latency histogram in
// internal/metrics).
package faults

import (
	"fmt"
	"slices"
	"sort"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Kind enumerates the fault event types.
type Kind uint8

// Fault event kinds. Down/Up pairs model failure and repair; Degrade
// models a transient bandwidth loss (the link stays routable but slower).
const (
	LinkDown Kind = iota
	LinkUp
	LinkDegrade
	RouterDown
	RouterUp
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkDegrade:
		return "link-degrade"
	case RouterDown:
		return "router-down"
	case RouterUp:
		return "router-up"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one timed fault. Link events address a link by its owning
// router and port (the fabric applies them to both directions); router
// events take down/restore every link incident to the switch.
type Event struct {
	At     sim.Time
	Kind   Kind
	Router topology.RouterID
	Port   int // link events only
	// Factor is the LinkDegrade bandwidth multiplier in (0, 1]; 1 restores
	// nominal rate.
	Factor float64
}

func (ev Event) String() string {
	switch ev.Kind {
	case RouterDown, RouterUp:
		return fmt.Sprintf("%s@%v r%d", ev.Kind, ev.At, ev.Router)
	case LinkDegrade:
		return fmt.Sprintf("%s@%v r%d.p%d x%.2f", ev.Kind, ev.At, ev.Router, ev.Port, ev.Factor)
	}
	return fmt.Sprintf("%s@%v r%d.p%d", ev.Kind, ev.At, ev.Router, ev.Port)
}

// Plan is a time-ordered fault schedule.
type Plan struct {
	Events []Event
}

// Add inserts an event after every event not later than it, keeping the
// plan sorted by time (authoring order breaks ties deterministically).
func (p *Plan) Add(ev Event) {
	i := sort.Search(len(p.Events), func(i int) bool { return p.Events[i].At > ev.At })
	p.Events = slices.Insert(p.Events, i, ev)
}

// Merge appends every event of other into p, keeping time order: the same
// order as adding them one by one, in one sort.
func (p *Plan) Merge(other Plan) {
	p.Events = append(p.Events, other.Events...)
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// Validate checks every event against the topology: known router, known
// wired port for link events, a degrade factor in (0, 1] (so not NaN),
// non-negative time.
func (p *Plan) Validate(topo topology.Topology) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d (%v) at negative time", i, ev)
		}
		if int(ev.Router) < 0 || int(ev.Router) >= topo.NumRouters() {
			return fmt.Errorf("faults: event %d (%v) addresses unknown router", i, ev)
		}
		switch ev.Kind {
		case LinkDown, LinkUp, LinkDegrade:
			if ev.Port < 0 || ev.Port >= topo.Radix(ev.Router) {
				return fmt.Errorf("faults: event %d (%v) addresses unknown port", i, ev)
			}
			if topo.PortPeer(ev.Router, ev.Port).Unwired() {
				return fmt.Errorf("faults: event %d (%v) addresses unwired port", i, ev)
			}
			if ev.Kind == LinkDegrade && !(ev.Factor > 0 && ev.Factor <= 1) {
				return fmt.Errorf("faults: event %d (%v) factor outside (0,1]", i, ev)
			}
		case RouterDown, RouterUp:
			// Router events need no port.
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Link describes one inter-router link by its canonical (lower) endpoint.
type Link struct {
	Router topology.RouterID
	Port   int
}

// RouterLinks enumerates every inter-router link of the topology exactly
// once, in deterministic (router, port) order. Terminal links are excluded:
// failing one is modelled by RouterDown on the attach router.
func RouterLinks(topo topology.Topology) []Link {
	var out []Link
	for r := topology.RouterID(0); int(r) < topo.NumRouters(); r++ {
		for p := 0; p < topo.Radix(r); p++ {
			peer := topo.PortPeer(r, p)
			if !peer.IsRouter() {
				continue
			}
			// Keep each undirected link once: the direction whose (router,
			// port) tuple is lexicographically smaller owns it.
			if peer.Router < r || (peer.Router == r && peer.Port < p) {
				continue
			}
			out = append(out, Link{Router: r, Port: p})
		}
	}
	return out
}

// RandomLinkFaults generates a plan failing n distinct inter-router links,
// each going down at a seeded-uniform time in [start, start+spread] and —
// when mttr > 0 — repaired mttr later. The same (topo, seed, n, window)
// always yields the same plan.
func RandomLinkFaults(topo topology.Topology, seed uint64, n int, start, spread, mttr sim.Time) Plan {
	links := RouterLinks(topo)
	if n > len(links) {
		n = len(links)
	}
	rng := sim.NewRNG(seed ^ 0xfa017a11)
	order := rng.Perm(len(links))
	var p Plan
	for i := 0; i < n; i++ {
		l := links[order[i]]
		at := start
		if spread > 0 {
			at += sim.Time(rng.Intn(int(spread) + 1))
		}
		p.Add(Event{At: at, Kind: LinkDown, Router: l.Router, Port: l.Port})
		if mttr > 0 {
			p.Add(Event{At: at + mttr, Kind: LinkUp, Router: l.Router, Port: l.Port})
		}
	}
	return p
}

// FlappingLink generates a link that alternates down/up: down at start,
// then toggling every half-period for the given number of full cycles.
func FlappingLink(r topology.RouterID, port int, start, period sim.Time, cycles int) Plan {
	var p Plan
	half := period / 2
	for c := 0; c < cycles; c++ {
		at := start + sim.Time(c)*period
		p.Add(Event{At: at, Kind: LinkDown, Router: r, Port: port})
		p.Add(Event{At: at + half, Kind: LinkUp, Router: r, Port: port})
	}
	return p
}

// DegradedLink generates a transient bandwidth degradation: the link runs
// at factor of nominal rate during [at, at+dur), then recovers (dur <= 0
// leaves it degraded for the rest of the run).
func DegradedLink(r topology.RouterID, port int, at sim.Time, factor float64, dur sim.Time) Plan {
	var p Plan
	p.Add(Event{At: at, Kind: LinkDegrade, Router: r, Port: port, Factor: factor})
	if dur > 0 {
		p.Add(Event{At: at + dur, Kind: LinkDegrade, Router: r, Port: port, Factor: 1})
	}
	return p
}
