package trace_test

import (
	"reflect"
	"slices"
	"testing"

	"prdrb"
	"prdrb/internal/network"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

// replayer is what the oracle needs of a replay, typed or reference.
type replayer interface {
	Start(at sim.Time)
	Finished() bool
	ExecutionTime() sim.Time
	Err() error
	FinishTimes() []sim.Time
}

func (r *refReplay) FinishTimes() []sim.Time {
	out := make([]sim.Time, len(r.ranks))
	for i, rs := range r.ranks {
		out[i] = rs.finishedAt
	}
	return out
}

func (r *refGoalReplay) FinishTimes() []sim.Time {
	out := make([]sim.Time, len(r.ranks))
	for i, rs := range r.ranks {
		out[i] = rs.finishedAt
	}
	return out
}

// replayRun is what one replayed cell leaves behind.
type replayRun struct {
	exec           sim.Time
	finish         []sim.Time
	processed, seq uint64 // events executed / sequence numbers consumed
	delivered      int64  // complete messages received, all NICs
	results        prdrb.Results
}

const oracleHorizon = 60 * sim.Second

// wheelCell replays on a simulation built the way the benchmark builds its
// cells: windowed-wheel engine, full runner, trace-tuned controllers for
// the DRB family.
func wheelCell(t *testing.T, policy prdrb.Policy, play func(*network.Network) (replayer, error)) replayRun {
	t.Helper()
	topo, err := prdrb.TopologyByName("ft-4-3")
	if err != nil {
		t.Fatal(err)
	}
	exp := prdrb.Experiment{Topology: topo, Policy: policy, Seed: 7}
	if cfg, ok := prdrb.TracePolicyConfig(policy); ok {
		exp.DRB = &cfg
	}
	s, err := prdrb.NewSim(exp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := play(s.Net)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	res := s.Execute(oracleHorizon)
	return finishRun(t, s.Net, rep, res)
}

// heapCell replays on the bare heap engine and hand-built fabric the
// benchmark's trace probe uses.
func heapCell(t *testing.T, play func(*network.Network) (replayer, error)) replayRun {
	t.Helper()
	net := network.MustNew(sim.NewEngine(), topology.NewKAryNTree(4, 3), network.DefaultConfig(), routing.Deterministic{}, nil)
	rep, err := play(net)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	net.Eng.Run(oracleHorizon)
	return finishRun(t, net, rep, prdrb.Results{})
}

func finishRun(t *testing.T, net *network.Network, rep replayer, res prdrb.Results) replayRun {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	run := replayRun{exec: rep.ExecutionTime(), finish: rep.FinishTimes(), processed: net.Eng.Processed, seq: net.Eng.Seq(), results: res}
	for _, nic := range net.NICs {
		run.delivered += nic.Delivered
	}
	if run.exec <= 0 || run.delivered == 0 {
		t.Fatalf("replay did nothing: exec %v, %d messages", run.exec, run.delivered)
	}
	return run
}

func requireSameRun(t *testing.T, got, want replayRun) {
	t.Helper()
	if got.exec != want.exec {
		t.Errorf("execution time %v, reference %v", got.exec, want.exec)
	}
	if !slices.Equal(got.finish, want.finish) {
		t.Errorf("per-rank finish times differ from the reference's")
	}
	if got.processed != want.processed || got.seq != want.seq {
		t.Errorf("executed %d events through sequence %d, reference %d through %d", got.processed, got.seq, want.processed, want.seq)
	}
	if got.delivered != want.delivered {
		t.Errorf("%d messages delivered, reference %d", got.delivered, want.delivered)
	}
	if !reflect.DeepEqual(got.results, want.results) {
		t.Errorf("results differ:\n got %+v\nwant %+v", got.results, want.results)
	}
}

// TestReplayMatchesClosures holds the typed per-rank actors to the closure
// replay they replaced, on the benchmark's five applications: same
// execution time, same finish time on every rank, same number of events
// executed and sequence numbers consumed (so every event kept its (time,
// seq) key), same messages delivered and same summarized Results — under
// deterministic routing and trace-tuned pr-drb on the runner's wheel
// engine, and under deterministic routing on the bare heap engine.
func TestReplayMatchesClosures(t *testing.T) {
	for _, app := range []string{"lammps-chain", "pop", "nas-mg-a", "sweep3d", "nas-lu"} {
		tr, err := workloads.ByName(app, workloads.Options{Iterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		typed := func(net *network.Network) (replayer, error) { return trace.NewReplay(net, tr, nil) }
		closures := func(net *network.Network) (replayer, error) { return newRefReplay(net, tr, nil) }
		for _, policy := range []prdrb.Policy{prdrb.PolicyDeterministic, prdrb.PolicyPRDRB} {
			t.Run(app+"/wheel/"+string(policy), func(t *testing.T) {
				requireSameRun(t, wheelCell(t, policy, typed), wheelCell(t, policy, closures))
			})
		}
		t.Run(app+"/heap/deterministic", func(t *testing.T) {
			requireSameRun(t, heapCell(t, typed), heapCell(t, closures))
		})
	}
}

// TestGoalReplayMatchesClosures is the same oracle for the dependency-graph
// replay, on the graph of one application.
func TestGoalReplayMatchesClosures(t *testing.T) {
	tr, err := workloads.ByName("nas-lu", workloads.Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.GoalFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(net *network.Network) (replayer, error) { return trace.NewGoalReplay(net, g, nil) }
	closures := func(net *network.Network) (replayer, error) { return newRefGoalReplay(net, g, nil) }
	t.Run("wheel/pr-drb", func(t *testing.T) {
		requireSameRun(t, wheelCell(t, prdrb.PolicyPRDRB, typed), wheelCell(t, prdrb.PolicyPRDRB, closures))
	})
	t.Run("heap/deterministic", func(t *testing.T) {
		requireSameRun(t, heapCell(t, typed), heapCell(t, closures))
	})
}

// TestReplayAllocs pins the replay's allocations to its set-up: on a fabric
// whose pools a first replay has filled, replaying nas-lu at 4 and at 12
// iterations allocates the same few objects (the rank array and, per rank,
// one hook, at most one inbox and a request queue growing to the depth its
// program needs) — nothing per replayed MPI operation. Messages are kept to one packet so the fabric reassembles,
// and so allocates, nothing of its own.
func TestReplayAllocs(t *testing.T) {
	net := network.MustNew(sim.NewEngine(), topology.NewKAryNTree(4, 3), network.DefaultConfig(), routing.Deterministic{}, nil)
	measure := func(iters int) (allocs float64, ops int) {
		tr, err := workloads.ByName("nas-lu", workloads.Options{Iterations: iters, MsgBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(2, func() {
			rep, err := trace.NewReplay(net, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep.Start(net.Eng.Now())
			net.Eng.RunAll()
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, tr.TotalEvents()
	}
	measure(12) // warm the packet pool and the engine's free list
	short, shortOps := measure(4)
	long, longOps := measure(12)
	t.Logf("nas-lu: %.0f allocations replaying %d events, %.0f replaying %d", short, shortOps, long, longOps)
	// A collection that falls inside a run can add an object of the
	// runtime's own; per-operation allocation would add thousands.
	if long-short > 2 {
		t.Fatalf("replaying %d more events took %.0f more allocations, want none", longOps-shortOps, long-short)
	}
	if limit := float64(5*net.Topo.NumTerminals() + 16); long > limit {
		t.Fatalf("a replay allocated %.0f objects, want <= %.0f (set-up only)", long, limit)
	}
}
