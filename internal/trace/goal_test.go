package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"prdrb/internal/collectives"
	"prdrb/internal/network"
	"prdrb/internal/sim"
)

// buildTestGoal assembles a small hand-written graph: rank 0 computes,
// then sends two overlapping messages to ranks 1 and 2; each peer
// receives, computes, and answers; rank 0's final calc requires both
// answers.
func buildTestGoal() *Goal {
	return &Goal{
		Name:  "goal-test",
		Ranks: 3,
		Progs: [][]GoalNode{
			{
				{Op: GoalCalc, Dur: 100},
				{Op: GoalSend, Peer: 1, Bytes: 2048, Tag: 0, Requires: []int{0}},
				{Op: GoalSend, Peer: 2, Bytes: 2048, Tag: 0, Requires: []int{0}},
				{Op: GoalRecv, Peer: 1, Tag: 0, Requires: []int{0}},
				{Op: GoalRecv, Peer: 2, Tag: 0, Requires: []int{0}},
				{Op: GoalCalc, Dur: 50, Requires: []int{3, 4}},
			},
			{
				{Op: GoalRecv, Peer: 0, Tag: 0},
				{Op: GoalCalc, Dur: 200, Requires: []int{0}},
				{Op: GoalSend, Peer: 0, Bytes: 512, Tag: 0, Requires: []int{1}},
			},
			{
				{Op: GoalRecv, Peer: 0, Tag: 0},
				{Op: GoalCalc, Dur: 200, Requires: []int{0}},
				{Op: GoalSend, Peer: 0, Bytes: 512, Tag: 0, Requires: []int{1}},
			},
		},
	}
}

func runGoalReplay(t *testing.T, net *network.Network, g *Goal) *GoalReplay {
	t.Helper()
	rep, err := NewGoalReplay(net, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(0)
	net.Eng.Run(sim.Infinity)
	return rep
}

func TestGoalRoundTrip(t *testing.T) {
	g := buildTestGoal()
	var buf bytes.Buffer
	if err := WriteGOAL(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGOAL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, buf.String())
	}
	var buf2 bytes.Buffer
	if err := WriteGOAL(&buf2, g2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("round trip not byte-identical:\n--- first\n%s--- second\n%s", buf.String(), buf2.String())
	}
	if g2.Name != g.Name || g2.Ranks != g.Ranks || g2.TotalNodes() != g.TotalNodes() {
		t.Fatal("round trip changed the graph shape")
	}
}

func TestGoalReplayHonorsDependencies(t *testing.T) {
	g := buildTestGoal()
	rep := runGoalReplay(t, newNet(t, 3), g)
	if !rep.Finished() {
		t.Fatalf("goal replay did not finish: %v", rep.Err())
	}
	// The graph's critical path is calc(100) -> send -> peer calc(200) ->
	// reply -> final calc(50): execution time must exceed the pure compute
	// chain (network latency comes on top).
	if rep.ExecutionTime() <= 350 {
		t.Fatalf("execution time %d does not cover the critical path", rep.ExecutionTime())
	}
}

// TestGoalReplayOverlap pins the point of the graph format: two transfers
// that a sequential trace would serialize (send; recv) overlap when their
// nodes share dependencies, so the graph finishes faster.
func TestGoalReplayOverlap(t *testing.T) {
	const bytes = 1 << 16
	seq := &Goal{
		Name:  "seq",
		Ranks: 2,
		Progs: [][]GoalNode{
			{
				{Op: GoalSend, Peer: 1, Bytes: bytes, Tag: 0},
				{Op: GoalRecv, Peer: 1, Tag: 0, Requires: []int{0}}, // serialized
			},
			{
				{Op: GoalRecv, Peer: 0, Tag: 0},
				{Op: GoalSend, Peer: 0, Bytes: bytes, Tag: 0, Requires: []int{0}},
			},
		},
	}
	par := &Goal{
		Name:  "par",
		Ranks: 2,
		Progs: [][]GoalNode{
			{
				{Op: GoalSend, Peer: 1, Bytes: bytes, Tag: 0},
				{Op: GoalRecv, Peer: 1, Tag: 0}, // independent: overlaps
			},
			{
				{Op: GoalRecv, Peer: 0, Tag: 0},
				{Op: GoalSend, Peer: 0, Bytes: bytes, Tag: 0}, // independent
			},
		},
	}
	repSeq := runGoalReplay(t, newNet(t, 2), seq)
	repPar := runGoalReplay(t, newNet(t, 2), par)
	if !repSeq.Finished() || !repPar.Finished() {
		t.Fatalf("replays did not finish: %v / %v", repSeq.Err(), repPar.Err())
	}
	if repPar.ExecutionTime() >= repSeq.ExecutionTime() {
		t.Fatalf("overlapped graph (%dns) not faster than serialized graph (%dns)",
			repPar.ExecutionTime(), repSeq.ExecutionTime())
	}
}

// TestGoalFromTraceReplay converts lowered collective traces into graphs
// and replays both: the graph must drain, and since the trace's only
// orderings are the ones GoalFromTrace encodes as edges, the graph's
// execution time must not exceed the sequential replay's.
func TestGoalFromTraceReplay(t *testing.T) {
	for _, n := range []int{6, 8} {
		b := NewBuilder("conv", n)
		b.Compute(0, 500)
		if err := b.AllreduceAlg(collectives.AlgRing, 4096); err != nil {
			t.Fatal(err)
		}
		b.Bcast(0, 1024)
		b.Alltoall(128)
		tr := b.Build()

		g, err := GoalFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if g.Ranks != tr.Ranks {
			t.Fatalf("rank count changed: %d -> %d", tr.Ranks, g.Ranks)
		}
		trRep := runReplay(t, newNet(t, n), tr)
		if !trRep.Finished() {
			t.Fatal("trace replay deadlocked")
		}
		gRep := runGoalReplay(t, newNet(t, n), g)
		if !gRep.Finished() {
			t.Fatalf("goal replay deadlocked: %v", gRep.Err())
		}
		if gRep.ExecutionTime() > trRep.ExecutionTime() {
			t.Fatalf("n=%d: goal replay (%dns) slower than sequential trace replay (%dns)",
				n, gRep.ExecutionTime(), trRep.ExecutionTime())
		}
	}
}

// TestGoalFromTraceDeterministic pins that conversion is a pure function:
// two conversions of the same trace serialize identically.
func TestGoalFromTraceDeterministic(t *testing.T) {
	b := NewBuilder("det", 8)
	b.Allreduce(2048)
	tr := b.Build()
	var a, c bytes.Buffer
	g1, err := GoalFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GoalFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteGOAL(&a, g1); err != nil {
		t.Fatal(err)
	}
	if err := WriteGOAL(&c, g2); err != nil {
		t.Fatal(err)
	}
	if a.String() != c.String() {
		t.Fatal("GoalFromTrace is not deterministic")
	}
}

func TestReadGOALRejects(t *testing.T) {
	cases := map[string]string{
		"missing magic":    "ranks 2\n",
		"no ranks":         "prdrb-goal 1\nname x\n",
		"bad rank count":   "prdrb-goal 1\nranks 1\n",
		"huge rank count":  "prdrb-goal 1\nranks 9999999\n",
		"rank out of rng":  "prdrb-goal 1\nranks 2\nrank 5\n",
		"node before rank": "prdrb-goal 1\nranks 2\nl0: calc 5\n",
		"duplicate label":  "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl0: calc 6\n",
		"dangling require": "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl0 requires l9\n",
		"undeclared from":  "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl9 requires l0\n",
		"self require":     "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl0 requires l0\n",
		"cycle":            "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl1: calc 5\nl0 requires l1\nl1 requires l0\n",
		"peer out of rng":  "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 7\n",
		"self message":     "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 0\n",
		"negative bytes":   "prdrb-goal 1\nranks 2\nrank 0\nl0: send -8b to 1\n",
		"bad op":           "prdrb-goal 1\nranks 2\nrank 0\nl0: frobnicate 5\n",
		"bad attr":         "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 1 color 3\n",
		"dangling attr":    "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 1 tag\n",
		"huge tag":         "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 1 tag 1073741824\n",
		"bad type":         "prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 1 type 256\n",
		"negative calc":    "prdrb-goal 1\nranks 2\nrank 0\nl0: calc -5\n",
	}
	for name, src := range cases {
		if _, err := ReadGOAL(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

// TestReadGOALRefusesTraceBounds: a GOAL schedule is held to the bounds a
// trace is, a send of at most 1 GiB and compute time summed over every
// rank of at most maxTotalCompute, and the error names the rank and the
// node. Unbounded,
// the 1 TiB send fragments into packets until memory runs out, and the
// long calc stalls the replay as if a rank were stuck.
func TestReadGOALRefusesTraceBounds(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"1TiB send", "prdrb-goal 1\nranks 2\nrank 0\nl0: send 1099511627776b to 1\nrank 1\nl0: recv 1099511627776b from 0\n",
			"goal: rank 0 node 0: message size 1099511627776 out of range"},
		{"1TiB recv", "prdrb-goal 1\nranks 2\nrank 1\nl0: calc 5\nl1: recv 1099511627776b from 0\n",
			"goal: rank 1 node 1: message size 1099511627776 out of range"},
		{"long calc", "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 9223372036854775800\n",
			"goal: rank 0 node 0: compute time adds up to more than"},
		{"calc total", "prdrb-goal 1\nranks 2\nrank 1\nl0: calc 4611686018427387000\nl1: calc 4611686018427387000\n",
			"goal: rank 1 node 1: compute time adds up to more than"},
		{"calc over ranks", "prdrb-goal 1\nranks 2\nrank 0\nl0: calc 4611686018427387000\nrank 1\nl0: calc 4611686018427387000\n",
			"goal: rank 1 node 0: compute time adds up to more than"},
		{"self send", "prdrb-goal 1\nranks 2\nrank 1\nl0: send 8b to 1\n", "goal: rank 1 node 0: send to itself"},
	} {
		if _, err := ReadGOAL(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// At the bounds: accepted.
	src := fmt.Sprintf("prdrb-goal 1\nranks 2\nrank 0\nl0: send %db to 1\nl1: calc %d\nrank 1\nl0: recv %db from 0\nl1: calc 5\n",
		maxMessageBytes, maxTotalCompute-5, maxMessageBytes)
	if _, err := ReadGOAL(strings.NewReader(src)); err != nil {
		t.Errorf("a schedule at the bounds: %v", err)
	}
}

func TestReadGOALForwardEdgeAndComments(t *testing.T) {
	src := `# comment
prdrb-goal 1
name fwd
ranks 2

rank 0
# requires may name a node declared later in the section
l1 requires l2
l1: send 64b to 1 tag 3 type 9
l2: calc 10
rank 1
l0: recv 64b from 0 tag 3 type 9
`
	g, err := ReadGOAL(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalNodes() != 3 {
		t.Fatalf("got %d nodes, want 3", g.TotalNodes())
	}
	send := g.Progs[0][0]
	if send.Op != GoalSend || send.Peer != 1 || send.Bytes != 64 || send.Tag != 3 || send.MPIType != 9 {
		t.Fatalf("send node parsed wrong: %+v", send)
	}
	if len(send.Requires) != 1 || send.Requires[0] != 1 {
		t.Fatalf("forward edge not resolved: %+v", send.Requires)
	}
	rep := runGoalReplay(t, newNet(t, 2), g)
	if !rep.Finished() {
		t.Fatalf("replay stuck: %v", rep.Err())
	}
}

// TestGoalReplayUnmatchedRecv pins the Err diagnostics for a graph that
// can never finish.
func TestGoalReplayUnmatchedRecv(t *testing.T) {
	g := &Goal{
		Name:  "stuck",
		Ranks: 2,
		Progs: [][]GoalNode{
			{{Op: GoalRecv, Peer: 1, Tag: 7}},
			{},
		},
	}
	rep := runGoalReplay(t, newNet(t, 2), g)
	if rep.Finished() {
		t.Fatal("unmatched recv finished")
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "unmatched recv") {
		t.Fatalf("want unmatched-recv diagnostic, got %v", err)
	}
}

func TestGoalValidateRejectsHandBuilt(t *testing.T) {
	bad := []*Goal{
		{Name: "ranks", Ranks: 1, Progs: [][]GoalNode{{}}},
		{Name: "progs", Ranks: 3, Progs: [][]GoalNode{{}, {}}},
		{Name: "dup-req", Ranks: 2, Progs: [][]GoalNode{
			{{Op: GoalCalc}, {Op: GoalCalc, Requires: []int{0, 0}}}, {}}},
		{Name: "neg-req", Ranks: 2, Progs: [][]GoalNode{
			{{Op: GoalCalc, Requires: []int{-1}}}, {}}},
		{Name: "bad-op", Ranks: 2, Progs: [][]GoalNode{{{Op: GoalOp(99)}}, {}}},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: validated", g.Name)
		}
	}
}

// FuzzReadGOAL: the GOAL parser must never panic, any schedule it accepts
// must serialize canonically and re-parse to the same bytes, and replaying
// an accepted schedule ends in an error or a finished replay, never a
// panic, within FuzzReadTrace's budget and horizon.
func FuzzReadGOAL(f *testing.F) {
	b := NewBuilder("seed", 4)
	b.Compute(0, 100)
	b.Send(0, 1, 2048)
	b.Recv(1, 0)
	b.Allreduce(64)
	g, err := GoalFromTrace(b.Build())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGOAL(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\n")
	f.Add("prdrb-goal 1\nranks 2\nrank 0\nl0: send 8b to 1 tag 2 type 9\nl1: recv 8b from 1\nl1 requires l0\n")
	f.Add("prdrb-goal 1\nranks 2\nrank 0\nl0: calc 5\nl1: calc 5\nl0 requires l1\nl1 requires l0\n")
	f.Add("prdrb-goal 1\nranks 999999999\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadGOAL(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteGOAL(&out, g); err != nil {
			t.Fatalf("accepted goal does not serialize: %v", err)
		}
		g2, err := ReadGOAL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, out.String())
		}
		var out2 bytes.Buffer
		if err := WriteGOAL(&out2, g2); err != nil {
			t.Fatal(err)
		}
		if out.String() != out2.String() {
			t.Fatalf("unstable goal round trip:\n--- first\n%s--- second\n%s", out.String(), out2.String())
		}
		volume := 0
		for _, prog := range g.Progs {
			for _, nd := range prog {
				volume += min(nd.Bytes, 1<<22)
			}
		}
		if g.TotalNodes() > 1<<14 || volume > 1<<22 {
			return
		}
		net := fuzzFabric()
		rep, err := NewGoalReplay(net, g, nil)
		if err != nil {
			return
		}
		rep.Start(0)
		net.Eng.Run(50 * sim.Millisecond)
		if rep.Finished() != (rep.Err() == nil) {
			t.Fatalf("finished=%v but Err()=%v", rep.Finished(), rep.Err())
		}
	})
}
