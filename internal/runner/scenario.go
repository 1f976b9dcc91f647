package runner

import (
	"prdrb/internal/core"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

// Scenario is one simulation as the CLIs run it: an Experiment plus the
// traffic installed on it, an optional fault plan and knowledge snapshot,
// and the drain allowed after the traffic ends. Build and Run own every
// decision the call sites used to repeat: the trace-tuned policy config and
// the serial engine for replays, the setup order (knowledge, faults, then
// traffic in field order) and the horizon (traffic end plus Drain).
type Scenario struct {
	Experiment
	// Knowledge preloads the predictive controllers' solution databases.
	Knowledge *core.Knowledge
	// Faults is a fault plan in the faults.ParsePlan grammar, drawn against
	// the topology with the experiment seed.
	Faults string

	HotSpots  []HotSpotSpec
	Pattern   *PatternSpec
	Bursts    *BurstSpec
	VarBursts []BurstSpec // cycled VarCount times (Fig 2.6b)
	VarCount  int
	HeavyTail *HeavyTailSpec
	Traces    []MappedTrace
	Goal      *trace.Goal

	// Drain is the time the run may take after its last traffic source
	// stops injecting; replays start at 0, so for them it is the horizon.
	Drain sim.Time
}

// HotSpotSpec is one set of colliding flows (§4.5) injected at RateMbps per
// source within [Start, End).
type HotSpotSpec struct {
	Flows      map[topology.NodeID]topology.NodeID
	RateMbps   float64
	Start, End sim.Time
}

// MappedTrace is a logical trace and its rank placement (nil = rank i on
// node i).
type MappedTrace struct {
	Trace   *trace.Trace
	Mapping []topology.NodeID
}

// Replayer is a running trace or GOAL replay.
type Replayer interface {
	Err() error
	ExecutionTime() sim.Time
}

// Outcome is an executed scenario.
type Outcome struct {
	Sim *Sim
	Res Results
	// Exec is the first replay's execution time (0 without replays).
	Exec sim.Time
}

// TracePolicyConfig returns the named DRB-family configuration tuned for
// application-trace workloads (§4.8). ok is false for non-DRB policies.
func TracePolicyConfig(p Policy) (core.Config, bool) {
	cfg, ok := core.ConfigByName(string(p))
	if !ok {
		return core.Config{}, false
	}
	return cfg.TuneForTraces(), true
}

// Build assembles the scenario and returns the simulation, its replays
// and its horizon, ready to execute.
func (sc Scenario) Build() (*Sim, []Replayer, sim.Time, error) {
	exp := sc.Experiment
	if len(sc.Traces) > 0 || sc.Goal != nil {
		// Replays drive the serial engine directly.
		exp.Shards = 1
		if exp.DRB == nil {
			if cfg, ok := TracePolicyConfig(exp.Policy); ok {
				exp.DRB = &cfg
			}
		}
	}
	s, err := New(exp)
	if err != nil {
		return nil, nil, 0, err
	}
	if sc.Knowledge != nil {
		if err := s.ImportKnowledge(sc.Knowledge); err != nil {
			return nil, nil, 0, err
		}
	}
	if sc.Faults != "" {
		plan, err := s.ParseFaults(sc.Faults)
		if err != nil {
			return nil, nil, 0, err
		}
		if _, err := s.InstallFaults(plan); err != nil {
			return nil, nil, 0, err
		}
	}
	var end sim.Time
	for _, h := range sc.HotSpots {
		s.InstallHotSpot(h.Flows, h.RateMbps, h.Start, h.End)
		end = max(end, h.End)
	}
	if p := sc.Pattern; p != nil {
		if err := s.InstallPattern(*p); err != nil {
			return nil, nil, 0, err
		}
		end = max(end, p.End)
	}
	if sc.Bursts != nil {
		e, err := s.InstallBursts(*sc.Bursts)
		if err != nil {
			return nil, nil, 0, err
		}
		end = max(end, e)
	}
	if len(sc.VarBursts) > 0 {
		e, err := s.InstallVariableBursts(sc.VarBursts, sc.VarCount)
		if err != nil {
			return nil, nil, 0, err
		}
		end = max(end, e)
	}
	if h := sc.HeavyTail; h != nil {
		if err := s.InstallHeavyTail(*h); err != nil {
			return nil, nil, 0, err
		}
		end = max(end, h.End)
	}
	var reps []Replayer
	for _, t := range sc.Traces {
		rep, err := s.PlayTrace(t.Trace, t.Mapping)
		if err != nil {
			return nil, nil, 0, err
		}
		reps = append(reps, rep)
	}
	if sc.Goal != nil {
		rep, err := s.PlayGoal(sc.Goal, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		reps = append(reps, rep)
	}
	return s, reps, end + sc.Drain, nil
}

// Run builds the scenario, executes it to its horizon and checks every
// replay.
func (sc Scenario) Run() (Outcome, error) {
	s, reps, horizon, err := sc.Build()
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{Sim: s, Res: s.Execute(horizon)}
	for i, rep := range reps {
		if err := rep.Err(); err != nil {
			return Outcome{}, err
		}
		if i == 0 {
			o.Exec = rep.ExecutionTime()
		}
	}
	return o, nil
}
