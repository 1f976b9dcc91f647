package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// ParsePlan builds a Plan from the comma-separated spec grammar of the
// --faults flag. Each clause is one of:
//
//	link@T:R.P[+D]         hard-fail the link at router R port P at time T,
//	                       repaired D later when +D is present
//	router@T:R[+D]         fail router R (all its links) at time T
//	degrade@T:R.P*F[+D]    run the link at F of nominal rate from T,
//	                       restored D later when +D is present
//	flap@T:R.P*N/D         flap the link N times with period D starting at T
//	randN@T[+S][~D]        fail N random inter-router links, times drawn
//	                       seeded-uniform in [T, T+S], each repaired D later
//
// Times use Go duration syntax (500us, 2ms). The seed parameter feeds the
// randN generator so the whole spec is reproducible. A flap clause holds at
// most maxFlapCycles cycles, and no clause may reach past the largest
// representable time.
func ParsePlan(spec string, topo topology.Topology, seed uint64) (Plan, error) {
	var plan Plan
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		sub, err := parseClause(clause, topo, seed)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		plan.Merge(sub)
	}
	if err := plan.Validate(topo); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// maxFlapCycles bounds a flap clause (two events per cycle) by the size
// bound the topology registry puts on a spec.
const maxFlapCycles = 1 << 20

func parseClause(clause string, topo topology.Topology, seed uint64) (Plan, error) {
	head, rest, ok := strings.Cut(clause, "@")
	if !ok {
		return Plan{}, fmt.Errorf("missing '@time'")
	}
	if n, isRand := strings.CutPrefix(head, "rand"); isRand {
		return parseRand(n, rest, topo, seed)
	}
	switch head {
	case "link":
		return parseLink(rest)
	case "router":
		return parseRouter(rest)
	case "degrade":
		return parseDegrade(rest)
	case "flap":
		return parseFlap(rest)
	}
	return Plan{}, fmt.Errorf("unknown fault kind %q", head)
}

// parseDur parses a Go duration into engine time (ns).
func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// splitAt cuts "T:BODY" into the time and the body.
func splitAt(rest string) (sim.Time, string, error) {
	ts, body, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, "", fmt.Errorf("missing ':target' after time")
	}
	at, err := parseDur(ts)
	if err != nil {
		return 0, "", err
	}
	return at, body, nil
}

// parseRP parses "R.P" into router and port.
func parseRP(s string) (topology.RouterID, int, error) {
	rs, ps, ok := strings.Cut(s, ".")
	if !ok {
		return 0, 0, fmt.Errorf("target %q not in router.port form", s)
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return 0, 0, fmt.Errorf("bad router %q", rs)
	}
	p, err := strconv.Atoi(ps)
	if err != nil {
		return 0, 0, fmt.Errorf("bad port %q", ps)
	}
	return topology.RouterID(r), p, nil
}

func parseLink(rest string) (Plan, error) {
	at, body, err := splitAt(rest)
	if err != nil {
		return Plan{}, err
	}
	body, repair, hasRepair, err := cutRepair(body)
	if err != nil {
		return Plan{}, err
	}
	r, p, err := parseRP(body)
	if err != nil {
		return Plan{}, err
	}
	var plan Plan
	plan.Add(Event{At: at, Kind: LinkDown, Router: r, Port: p})
	if hasRepair {
		plan.Add(Event{At: at + repair, Kind: LinkUp, Router: r, Port: p})
	}
	return plan, nil
}

func parseRouter(rest string) (Plan, error) {
	at, body, err := splitAt(rest)
	if err != nil {
		return Plan{}, err
	}
	body, repair, hasRepair, err := cutRepair(body)
	if err != nil {
		return Plan{}, err
	}
	r, err := strconv.Atoi(body)
	if err != nil {
		return Plan{}, fmt.Errorf("bad router %q", body)
	}
	var plan Plan
	plan.Add(Event{At: at, Kind: RouterDown, Router: topology.RouterID(r)})
	if hasRepair {
		plan.Add(Event{At: at + repair, Kind: RouterUp, Router: topology.RouterID(r)})
	}
	return plan, nil
}

func parseDegrade(rest string) (Plan, error) {
	at, body, err := splitAt(rest)
	if err != nil {
		return Plan{}, err
	}
	body, repair, hasRepair, err := cutRepair(body)
	if err != nil {
		return Plan{}, err
	}
	target, fs, ok := strings.Cut(body, "*")
	if !ok {
		return Plan{}, fmt.Errorf("degrade needs '*factor'")
	}
	r, p, err := parseRP(target)
	if err != nil {
		return Plan{}, err
	}
	f, err := strconv.ParseFloat(fs, 64)
	if err != nil {
		return Plan{}, fmt.Errorf("bad factor %q", fs)
	}
	dur := sim.Time(0)
	if hasRepair {
		dur = repair
	}
	return DegradedLink(r, p, at, f, dur), nil
}

func parseFlap(rest string) (Plan, error) {
	at, body, err := splitAt(rest)
	if err != nil {
		return Plan{}, err
	}
	target, spec, ok := strings.Cut(body, "*")
	if !ok {
		return Plan{}, fmt.Errorf("flap needs '*cycles/period'")
	}
	r, p, err := parseRP(target)
	if err != nil {
		return Plan{}, err
	}
	cs, ps, ok := strings.Cut(spec, "/")
	if !ok {
		return Plan{}, fmt.Errorf("flap needs '*cycles/period'")
	}
	cycles, err := strconv.Atoi(cs)
	if err != nil || cycles <= 0 || cycles > maxFlapCycles {
		return Plan{}, fmt.Errorf("bad cycle count %q (want 1..%d)", cs, maxFlapCycles)
	}
	period, err := parseDur(ps)
	if err != nil {
		return Plan{}, err
	}
	if period > 0 && sim.Time(cycles) > (math.MaxInt64-at)/period {
		return Plan{}, fmt.Errorf("%d cycles of %v overflow the time range", cycles, period)
	}
	return FlappingLink(r, p, at, period, cycles), nil
}

func parseRand(ns, rest string, topo topology.Topology, seed uint64) (Plan, error) {
	n, err := strconv.Atoi(ns)
	if err != nil || n <= 0 {
		return Plan{}, fmt.Errorf("bad fault count %q", ns)
	}
	// rest is T[+S][~D]; ~D (repair) may precede or follow +S textually, so
	// peel the repair suffix first.
	mttr := sim.Time(0)
	if body, ds, ok := strings.Cut(rest, "~"); ok {
		rest = body
		mttr, err = parseDur(ds)
		if err != nil {
			return Plan{}, err
		}
	}
	spread := sim.Time(0)
	if body, ss, ok := strings.Cut(rest, "+"); ok {
		rest = body
		spread, err = parseDur(ss)
		if err != nil {
			return Plan{}, err
		}
	}
	start, err := parseDur(rest)
	if err != nil {
		return Plan{}, err
	}
	// The draw is uniform over spread+1 instants from start.
	if spread > math.MaxInt64-1-start {
		return Plan{}, fmt.Errorf("spread %v from %v overflows the time range", spread, start)
	}
	return RandomLinkFaults(topo, seed, n, start, spread, mttr), nil
}

// cutRepair strips a trailing "+duration" repair suffix from a clause body.
func cutRepair(body string) (string, sim.Time, bool, error) {
	b, ds, ok := strings.Cut(body, "+")
	if !ok {
		return body, 0, false, nil
	}
	d, err := parseDur(ds)
	if err != nil {
		return "", 0, false, err
	}
	return b, d, true, nil
}
