package faults

import (
	"prdrb/internal/network"
)

// Injector owns a plan's execution against one network: it schedules every
// event on the network's engine and counts what it applied.
type Injector struct {
	net *network.Network

	// Applied counts, per kind, the events already executed.
	Applied map[Kind]int
}

// Install validates the plan against the network's topology and schedules
// every event through the network's control path. Events fire in plan
// order (same-time ties break by scheduling sequence, which Install
// preserves by scheduling in plan order). On a sharded network the control
// path runs fault transitions at window barriers — at most one lookahead
// before their nominal time — where flipping link state shared by every
// shard is race-free.
func Install(net *network.Network, plan Plan) (*Injector, error) {
	if err := plan.Validate(net.Topo); err != nil {
		return nil, err
	}
	inj := &Injector{net: net, Applied: make(map[Kind]int)}
	for _, ev := range plan.Events {
		net.ScheduleControl(ev.At, func() { inj.apply(ev) })
	}
	return inj, nil
}

func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case LinkDown:
		inj.net.FailLink(ev.Router, ev.Port)
	case LinkUp:
		inj.net.RestoreLink(ev.Router, ev.Port)
	case LinkDegrade:
		inj.net.DegradeLink(ev.Router, ev.Port, ev.Factor)
	case RouterDown:
		inj.net.FailRouter(ev.Router)
	case RouterUp:
		inj.net.RestoreRouter(ev.Router)
	}
	inj.Applied[ev.Kind]++
}
