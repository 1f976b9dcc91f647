package prdrb

import (
	"testing"
)

// burstRun executes the canonical repeated-burst experiment (Fig 3.1's
// scenario) and returns results plus per-burst average latencies in us.
func burstRun(t *testing.T, policy Policy, rate float64, bursts int, seed uint64) (Results, []float64) {
	t.Helper()
	exp := Experiment{
		Topology:     FatTree(4, 3),
		Policy:       policy,
		Seed:         seed,
		SeriesWindow: 50 * Microsecond,
	}
	s := MustNewSim(exp)
	blen, gap := 250*Microsecond, 300*Microsecond
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "shuffle", RateMbps: rate, Len: blen, Gap: gap, Count: bursts,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + 50*Millisecond)
	period := blen + gap
	avg := make([]float64, bursts)
	n := make([]int64, bursts)
	for _, smp := range s.Collector.GlobalSeries.Samples() {
		b := int((smp.At - 1) / period)
		if b >= 0 && b < bursts {
			avg[b] += smp.Avg * float64(smp.N)
			n[b] += smp.N
		}
	}
	for b := range avg {
		if n[b] > 0 {
			avg[b] /= float64(n[b]) * 1e3 // -> us
		}
	}
	return res, avg
}

// The paper's central claims on synthetic bursty traffic (Figs 3.1, 4.13+):
// (1) DRB family well below deterministic, (2) PR-DRB below DRB globally,
// (3) first burst roughly equal (learning), later bursts clearly better
// (reuse), (4) throughput never penalized.
func TestPaperShapeBurstyShuffle(t *testing.T) {
	const rate, bursts, seed = 900, 8, 11
	det, _ := burstRun(t, PolicyDeterministic, rate, bursts, seed)
	drb, drbBursts := burstRun(t, PolicyDRB, rate, bursts, seed)
	pr, prBursts := burstRun(t, PolicyPRDRB, rate, bursts, seed)

	if gain := GainPct(det.GlobalLatencyUs, drb.GlobalLatencyUs); gain < 15 {
		t.Errorf("DRB vs deterministic gain = %.1f%%, want >= 15%%", gain)
	}
	if gain := GainPct(drb.GlobalLatencyUs, pr.GlobalLatencyUs); gain < 3 {
		t.Errorf("PR-DRB vs DRB gain = %.1f%%, want >= 3%%", gain)
	}
	// First burst: both are learning (Fig 3.1 stage 1), within 10%.
	if d := GainPct(drbBursts[0], prBursts[0]); d > 10 || d < -10 {
		t.Errorf("first-burst difference %.1f%% too large: drb=%.1f pr=%.1f", d, drbBursts[0], prBursts[0])
	}
	// Later bursts: PR-DRB re-applies saved solutions (stage 2).
	lateDRB := (drbBursts[bursts-2] + drbBursts[bursts-1]) / 2
	latePR := (prBursts[bursts-2] + prBursts[bursts-1]) / 2
	if gain := GainPct(lateDRB, latePR); gain < 8 {
		t.Errorf("late-burst PR-DRB gain = %.1f%% (drb=%.1f pr=%.1f), want >= 8%%", gain, lateDRB, latePR)
	}
	// Lossless delivery for everyone.
	for _, r := range []Results{det, drb, pr} {
		if r.AcceptedRatio != 1 {
			t.Errorf("%s accepted ratio %v != 1", r.Policy, r.AcceptedRatio)
		}
	}
	// The predictive machinery actually ran.
	if pr.Stats.ReuseApplications == 0 || pr.SavedPatterns == 0 {
		t.Error("PR-DRB never reused a saved solution")
	}
	if drb.Stats.ReuseApplications != 0 {
		t.Error("plain DRB reused solutions")
	}
}

// Mesh hot-spot (Figs 4.10/4.11), averaged over seeds per §4.3: the
// latency-map peak under PR-DRB must sit below the deterministic peak,
// PR-DRB's average contention at most DRB's, and global latency must not
// regress versus deterministic or DRB.
func TestPaperShapeMeshHotspot(t *testing.T) {
	type agg struct{ peak, avgCont, global float64 }
	run := func(policy Policy) agg {
		var a agg
		seeds := []uint64{1, 2, 3}
		for _, seed := range seeds {
			s := MustNewSim(Experiment{Topology: Mesh(8, 8), Policy: policy, Seed: seed})
			flows := map[NodeID]NodeID{}
			for i := 0; i < 8; i++ {
				flows[NodeID(i)] = NodeID(63 - i)
				flows[NodeID(8*i)] = NodeID(8*i + 7)
			}
			for b := 0; b < 8; b++ {
				start := Time(b) * 550 * Microsecond
				s.InstallHotSpot(flows, 800, start, start+250*Microsecond)
			}
			if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 100, Start: 0, End: 8 * 550 * Microsecond}); err != nil {
				t.Fatal(err)
			}
			res := s.Execute(100 * Millisecond)
			n := float64(len(seeds))
			a.peak += s.Map().Peak().AvgNs / n
			a.avgCont += res.AvgContentionUs / n
			a.global += res.GlobalLatencyUs / n
		}
		return a
	}
	det := run(PolicyDeterministic)
	drb := run(PolicyDRB)
	pr := run(PolicyPRDRB)
	if pr.peak >= det.peak {
		t.Errorf("PR-DRB map peak %.0f not below deterministic %.0f", pr.peak, det.peak)
	}
	if pr.avgCont > drb.avgCont*1.05 {
		t.Errorf("PR-DRB avg contention %.2f above DRB %.2f", pr.avgCont, drb.avgCont)
	}
	if pr.global > det.global*1.02 {
		t.Errorf("PR-DRB global latency %.2f above deterministic %.2f", pr.global, det.global)
	}
	if pr.global > drb.global {
		t.Errorf("PR-DRB global latency %.2f above DRB %.2f", pr.global, drb.global)
	}
}

// Application traces (§4.8): the DRB family must beat deterministic on
// both latency and execution time, with the trace-tuned configuration.
func TestPaperShapeApplicationTrace(t *testing.T) {
	run := func(policy Policy) (Results, Time) {
		tr, err := Workload("lammps-chain", WorkloadOptions{Iterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		exp := Experiment{Topology: FatTree(4, 3), Policy: policy, Seed: 5}
		if cfg, ok := TracePolicyConfig(policy); ok {
			exp.DRB = &cfg
		}
		s := MustNewSim(exp)
		rep, err := s.PlayTrace(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Execute(20 * Second)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return res, rep.ExecutionTime()
	}
	det, detExec := run(PolicyDeterministic)
	pr, prExec := run(PolicyPRDRB)
	if gain := GainPct(det.GlobalLatencyUs, pr.GlobalLatencyUs); gain < 25 {
		t.Errorf("PR-DRB latency gain on LAMMPS = %.1f%%, want >= 25%%", gain)
	}
	if gain := GainPct(float64(detExec), float64(prExec)); gain < 10 {
		t.Errorf("PR-DRB execution-time gain = %.1f%%, want >= 10%%", gain)
	}
	if pr.Stats.ReuseApplications == 0 {
		t.Error("no pattern reuse during application trace")
	}
}

// Same seed, same configuration => identical results (determinism).
func TestDeterminism(t *testing.T) {
	a, burstsA := burstRun(t, PolicyPRDRB, 700, 3, 99)
	b, burstsB := burstRun(t, PolicyPRDRB, 700, 3, 99)
	if a.GlobalLatencyUs != b.GlobalLatencyUs || a.DeliveredPkts != b.DeliveredPkts {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range burstsA {
		if burstsA[i] != burstsB[i] {
			t.Fatalf("burst series diverged at %d", i)
		}
	}
	c, _ := burstRun(t, PolicyPRDRB, 700, 3, 100)
	if a.GlobalLatencyUs == c.GlobalLatencyUs {
		t.Error("different seeds produced identical latency (suspicious)")
	}
}

func TestAllPoliciesConstruct(t *testing.T) {
	for _, p := range Policies() {
		s, err := NewSim(Experiment{Topology: FatTree(2, 2), Policy: p, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if p.IsDRBFamily() && s.Controllers == nil {
			t.Fatalf("%s: no controllers installed", p)
		}
		if !p.IsDRBFamily() && s.Controllers != nil {
			t.Fatalf("%s: unexpected controllers", p)
		}
	}
	if _, err := NewSim(Experiment{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := MustNewSim(Experiment{})
	if s.Exp.Policy != PolicyDeterministic {
		t.Fatal("default policy wrong")
	}
	if s.Net.Topo.NumTerminals() != 64 {
		t.Fatal("default topology wrong")
	}
}

func TestPatternNodesRestriction(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyDeterministic, Seed: 1})
	if err := s.InstallPattern(PatternSpec{
		Pattern: "bitreversal", RateMbps: 400,
		Start: 0, End: 100 * Microsecond, PatternNodes: 32,
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Execute(10 * Millisecond)
	if res.DeliveredPkts == 0 {
		t.Fatal("no traffic")
	}
	// Destinations must stay within the 32-node space.
	for d := 32; d < 64; d++ {
		if s.Collector.Latency.Dst(d) != 0 {
			t.Fatalf("32-node pattern reached node %d", d)
		}
	}
}

// TestPatternNodesBeyondFabricRejected: a permutation space larger than the
// fabric would address terminals that do not exist (the tree's digit
// arithmetic wraps them onto real ones), so every Install entry point
// refuses it.
func TestPatternNodesBeyondFabricRejected(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(2, 3), Policy: PolicyDeterministic, Seed: 1})
	burst := BurstSpec{Pattern: "shuffle", RateMbps: 400, Len: Microsecond, Gap: Microsecond, Count: 1, PatternNodes: 16}
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, End: Microsecond, PatternNodes: 16}); err == nil {
		t.Error("InstallPattern accepted 16 pattern nodes on 8 terminals")
	}
	if _, err := s.InstallBursts(burst); err == nil {
		t.Error("InstallBursts accepted 16 pattern nodes on 8 terminals")
	}
	if _, err := s.InstallVariableBursts([]BurstSpec{burst}, 1); err == nil {
		t.Error("InstallVariableBursts accepted 16 pattern nodes on 8 terminals")
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, End: Microsecond, PatternNodes: -1}); err == nil {
		t.Error("InstallPattern accepted a negative pattern space")
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, End: Microsecond, PatternNodes: 8}); err != nil {
		t.Errorf("the full fabric as pattern space was refused: %v", err)
	}
}

func TestTraceBuilderFacade(t *testing.T) {
	b := NewTraceBuilder("facade", 2)
	b.Send(0, 1, 2048)
	b.Recv(1, 0)
	s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: PolicyAdaptive, Seed: 2})
	rep, err := s.PlayTrace(b.Build(), []NodeID{0, 15})
	if err != nil {
		t.Fatal(err)
	}
	s.Execute(Second)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Finished() {
		t.Fatal("facade trace not finished")
	}
}

func TestSeedsAndGain(t *testing.T) {
	if len(Seeds(5, 1)) != 5 {
		t.Fatal("Seeds facade broken")
	}
	if GainPct(200, 100) != 50 {
		t.Fatal("GainPct facade broken")
	}
	mean, ci := MultiSeedLatency(Seeds(3, 2), func(seed uint64) float64 { return float64(seed % 7) })
	if mean < 0 || ci < 0 {
		t.Fatal("MultiSeedLatency broken")
	}
}

func TestResultsString(t *testing.T) {
	r := Results{Policy: PolicyDRB, GlobalLatencyUs: 12.5}
	if r.String() == "" {
		t.Fatal("empty Results rendering")
	}
}
