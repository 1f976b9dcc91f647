package runner

import (
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

// TestScenarioMatchesHandBuilt: for every traffic source a Scenario
// installs, Run gives the Results, executed-event count and execution time
// of the hand-built sequence it replaced at the call sites — New, the
// installers in the same order, Execute to the same horizon, Err on every
// replay.
func TestScenarioMatchesHandBuilt(t *testing.T) {
	us := sim.Microsecond
	mesh := func() topology.Topology { return topology.NewMesh(4, 4) }
	tree := func() topology.Topology { return topology.NewKAryNTree(4, 2) }
	tr, err := workloads.ByName("lammps-chain", workloads.Options{Ranks: 16, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	goal, err := trace.GoalFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]topology.NodeID, 16)
	for i := range reversed {
		reversed[i] = topology.NodeID(15 - i)
	}
	burst := BurstSpec{Pattern: "shuffle", RateMbps: 900, Len: 50 * us, Gap: 60 * us, Count: 3}
	pattern := PatternSpec{Pattern: "uniform", RateMbps: 300, End: 150 * us}
	flows := map[topology.NodeID]topology.NodeID{0: 15, 4: 7, 8: 11}
	heavy := HeavyTailSpec{CDF: "cache", Pattern: "grouplocal", PLocal: 0.7, LoadMbps: 300,
		OnMean: 40 * us, OffMean: 20 * us, End: 150 * us}

	// The knowledge a pr-drb bursts run leaves behind.
	train := MustNew(Experiment{Topology: tree(), Policy: PolicyPRDRB, Seed: 5})
	end, err := train.InstallBursts(burst)
	if err != nil {
		t.Fatal(err)
	}
	train.Execute(end + sim.Second)
	know := train.ExportKnowledge()
	if know.Size() == 0 {
		t.Fatal("training run saved no solutions")
	}

	type built struct {
		s    *Sim
		res  Results
		exec sim.Time
	}
	for _, c := range []struct {
		name string
		sc   Scenario
		hand func(t *testing.T, exp Experiment) built
	}{
		{"pattern", Scenario{Experiment: Experiment{Topology: mesh(), Policy: PolicyAdaptive}, Pattern: &pattern, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				check(t, s.InstallPattern(pattern))
				return built{s: s, res: s.Execute(pattern.End + sim.Second)}
			}},
		{"pattern on 2 shards", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyDRB, Shards: 2}, Pattern: &pattern, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				check(t, s.InstallPattern(pattern))
				return built{s: s, res: s.Execute(pattern.End + sim.Second)}
			}},
		{"bursts", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyPRDRB, SeriesWindow: 20 * us}, Bursts: &burst, Drain: 100 * sim.Millisecond},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				end, err := s.InstallBursts(burst)
				check(t, err)
				return built{s: s, res: s.Execute(end + 100*sim.Millisecond)}
			}},
		{"variable bursts", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyPRDRB},
			VarBursts: []BurstSpec{burst, {Pattern: "bitreversal", RateMbps: 900, Len: 50 * us, Gap: 60 * us}}, VarCount: 4, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				end, err := s.InstallVariableBursts([]BurstSpec{burst, {Pattern: "bitreversal", RateMbps: 900, Len: 50 * us, Gap: 60 * us}}, 4)
				check(t, err)
				return built{s: s, res: s.Execute(end + sim.Second)}
			}},
		{"hot-spot plus pattern", Scenario{Experiment: Experiment{Topology: mesh(), Policy: PolicyDRB},
			HotSpots: []HotSpotSpec{{Flows: flows, RateMbps: 800, End: 50 * us}, {Flows: flows, RateMbps: 800, Start: 100 * us, End: 150 * us}},
			Pattern:  &pattern, Drain: sim.Second - 150*us},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				s.InstallHotSpot(flows, 800, 0, 50*us)
				s.InstallHotSpot(flows, 800, 100*us, 150*us)
				check(t, s.InstallPattern(pattern))
				return built{s: s, res: s.Execute(sim.Second)}
			}},
		{"heavy-tail", Scenario{Experiment: Experiment{Topology: mesh(), Policy: PolicyPRDRB}, HeavyTail: &heavy, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				check(t, s.InstallHeavyTail(heavy))
				return built{s: s, res: s.Execute(heavy.End + sim.Second)}
			}},
		{"trace", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyPRDRB, Shards: 2},
			Traces: []MappedTrace{{Trace: tr, Mapping: reversed}}, Drain: 60 * sim.Second},
			func(t *testing.T, exp Experiment) built {
				exp.Shards = 1
				cfg, _ := TracePolicyConfig(exp.Policy)
				exp.DRB = &cfg
				s := MustNew(exp)
				rep, err := s.PlayTrace(tr, reversed)
				check(t, err)
				res := s.Execute(60 * sim.Second)
				check(t, rep.Err())
				return built{s: s, res: res, exec: rep.ExecutionTime()}
			}},
		{"GOAL", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyDRB}, Goal: goal, Drain: 60 * sim.Second},
			func(t *testing.T, exp Experiment) built {
				exp.Shards = 1
				cfg, _ := TracePolicyConfig(exp.Policy)
				exp.DRB = &cfg
				s := MustNew(exp)
				rep, err := s.PlayGoal(goal, nil)
				check(t, err)
				res := s.Execute(60 * sim.Second)
				check(t, rep.Err())
				return built{s: s, res: res, exec: rep.ExecutionTime()}
			}},
		{"faults plus pattern", Scenario{Experiment: Experiment{Topology: mesh(), Policy: PolicyPRDRB},
			Faults: "rand2@40us+20us~60us", Pattern: &pattern, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				plan, err := s.ParseFaults("rand2@40us+20us~60us")
				check(t, err)
				_, err = s.InstallFaults(plan)
				check(t, err)
				check(t, s.InstallPattern(pattern))
				return built{s: s, res: s.Execute(pattern.End + sim.Second)}
			}},
		{"knowledge import", Scenario{Experiment: Experiment{Topology: tree(), Policy: PolicyPRDRB}, Knowledge: know, Bursts: &burst, Drain: sim.Second},
			func(t *testing.T, exp Experiment) built {
				s := MustNew(exp)
				check(t, s.ImportKnowledge(know))
				end, err := s.InstallBursts(burst)
				check(t, err)
				return built{s: s, res: s.Execute(end + sim.Second)}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.sc.Seed = 7
			o, err := c.sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := c.hand(t, c.sc.Experiment)
			if o.Res != want.res || o.Exec != want.exec {
				t.Errorf("scenario\n%+v exec %d\nhand-built\n%+v exec %d", o.Res, o.Exec, want.res, want.exec)
			}
			if got, want := o.Sim.Processed(), want.s.Processed(); got != want {
				t.Errorf("scenario executed %d events, hand-built %d", got, want)
			}
			if o.Res.DeliveredPkts == 0 {
				t.Error("delivered nothing")
			}
		})
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
