package prdrb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"prdrb/internal/core"
)

// The §5.2 static variation through the facade: train, export, import into
// a fresh simulation, and verify the preloaded run reuses solutions and
// does not regress.
func TestKnowledgePreloadFacade(t *testing.T) {
	train := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 21})
	end, err := train.InstallBursts(BurstSpec{
		Pattern: "shuffle", RateMbps: 900,
		Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	train.Execute(end + Second)
	k := train.ExportKnowledge()
	if k.Size() == 0 {
		t.Fatal("training exported nothing")
	}

	warm := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 22})
	if err := warm.ImportKnowledge(k); err != nil {
		t.Fatal(err)
	}
	end, err = warm.InstallBursts(BurstSpec{
		Pattern: "shuffle", RateMbps: 900,
		Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := warm.Execute(end + Second)
	if res.Stats.ReuseApplications == 0 {
		t.Fatal("preloaded run never reused a solution")
	}

	// Baselines cannot be preloaded.
	det := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyDeterministic, Seed: 1})
	if err := det.ImportKnowledge(k); err == nil {
		t.Fatal("deterministic policy accepted knowledge")
	}
}

// The trend predictor must reduce (or at worst match) latency on the
// standard heavy-burst scenario while actually firing.
func TestTrendPredictorFacade(t *testing.T) {
	run := func(horizon Time) Results {
		cfg := PRDRBPolicyConfig()
		cfg.TrendHorizon = horizon
		s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 31, DRB: &cfg})
		end, err := s.InstallBursts(BurstSpec{
			Pattern: "shuffle", RateMbps: 900,
			Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Execute(end + Second)
	}
	off := run(0)
	on := run(300 * Microsecond)
	if off.Stats.TrendFirings != 0 {
		t.Fatal("predictor fired while disabled")
	}
	if on.Stats.TrendFirings == 0 {
		t.Fatal("predictor never fired while enabled")
	}
	if on.GlobalLatencyUs > off.GlobalLatencyUs*1.05 {
		t.Fatalf("trend prediction degraded latency: %.2f vs %.2f", on.GlobalLatencyUs, off.GlobalLatencyUs)
	}
}

func TestEnergyFacade(t *testing.T) {
	s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: PolicyDeterministic, Seed: 1})
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 400, Start: 0, End: 200 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	s.Execute(Second)
	rep := s.Energy(DefaultEnergyModel())
	if rep.TotalJoules <= 0 || rep.Links == 0 {
		t.Fatalf("energy report empty: %+v", rep)
	}
	if rep.SavingsPct() <= 0 {
		t.Fatal("no gating savings on a short run")
	}
}

// TestEnergyPinned pins the energy report of one ft-4-3 run, recorded
// before the report moved onto the fabric's one link walk: no result file
// prints it.
func TestEnergyPinned(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 1})
	if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, Start: 0, End: 200 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	s.Execute(Second)
	rep := s.Energy(DefaultEnergyModel())
	const want = "links=384 idle=143 elapsed=220.098us energy=0.099J active=0.029J gated=0.029J savings=70.7%"
	if got := rep.String(); got != want {
		t.Errorf("energy report\n got: %s\nwant: %s", got, want)
	}
	// The line rounds to a millijoule; the fields pin every bit. The
	// conversion strips String so %+v prints them.
	type fields EnergyReport
	const wantFields = "{Elapsed:220.098us TotalJoules:0.09901849599999998 ActiveJoules:0.02900172799999997 GatedJoules:0.02900172799999997 IdleLinks:143 Links:384}"
	if got := fmt.Sprintf("%+v", fields(rep)); got != wantFields {
		t.Errorf("energy fields\n got: %s\nwant: %s", got, wantFields)
	}
}

func TestDemandFacade(t *testing.T) {
	tr, err := Workload("pop", WorkloadOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := AnalyzeDemand(FatTree(4, 3), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.UsedLinks == 0 || d.TotalBytes == 0 {
		t.Fatal("empty demand analysis")
	}
	if fs := d.FootprintShare(); fs <= 0 || fs > 1 {
		t.Fatalf("footprint share %v", fs)
	}
}

func TestTraceIOFacade(t *testing.T) {
	tr, err := Workload("sweep3d", WorkloadOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "prdrb-trace 1") {
		t.Fatal("missing magic")
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != tr.Ranks || got.TotalEvents() != tr.TotalEvents() {
		t.Fatal("trace IO mismatch")
	}
	// The reloaded trace must replay cleanly.
	s := MustNewSim(Experiment{Topology: Mesh(8, 8), Policy: PolicyAdaptive, Seed: 2})
	rep, err := s.PlayTrace(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Execute(20 * Second)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// Router-based notification must work end to end through the facade and
// still satisfy the lossless + reuse properties.
func TestRouterBasedModeFacade(t *testing.T) {
	netCfg := DefaultNetworkConfig()
	netCfg.NotifyMode = 1 // RouterBased
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 17, Network: &netCfg})
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "shuffle", RateMbps: 900,
		Len: 250 * Microsecond, Gap: 300 * Microsecond, Count: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + Second)
	if res.AcceptedRatio != 1 {
		t.Fatalf("router-based mode lost traffic: %v", res.AcceptedRatio)
	}
	if res.Stats.PredictiveAcks == 0 {
		t.Fatal("no router-originated predictive ACKs observed")
	}
	if s.Net.PredictiveAcksSent() == 0 {
		t.Fatal("GPA modules never injected")
	}
}

// The FR-DRB watchdog must fire under saturation through the facade.
func TestWatchdogFacade(t *testing.T) {
	cfg := FRDRBPolicyConfig()
	cfg.Watchdog = 30 * Microsecond
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyFRDRB, Seed: 13, DRB: &cfg})
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "transpose", RateMbps: 1200,
		Len: 300 * Microsecond, Gap: 200 * Microsecond, Count: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + Second)
	if res.Stats.WatchdogFirings == 0 {
		t.Fatal("watchdog never fired under saturation")
	}
	if res.AcceptedRatio != 1 {
		t.Fatal("lost traffic")
	}
}

func TestOptimizePlacementFacade(t *testing.T) {
	tr, err := Workload("lammps-chain", WorkloadOptions{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	mapping, gain, err := OptimizePlacement(FatTree(4, 3), tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 {
		t.Fatalf("placement gain = %.1f%%, want positive", gain)
	}
	// The optimized mapping must replay cleanly and beat identity latency
	// under deterministic routing.
	run := func(m []NodeID) float64 {
		s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyDeterministic, Seed: 4})
		rep, err := s.PlayTrace(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Execute(60 * Second)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return res.GlobalLatencyUs
	}
	id, opt := run(nil), run(mapping)
	if opt >= id {
		t.Fatalf("optimized placement latency %.2f not below identity %.2f", opt, id)
	}
}

func TestPercentilesAndSurface(t *testing.T) {
	s := MustNewSim(Experiment{Topology: Mesh(8, 8), Policy: PolicyDeterministic, Seed: 9})
	if err := s.InstallPattern(PatternSpec{Pattern: "transpose", RateMbps: 900, Start: 0, End: 500 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	res := s.Execute(Second)
	if res.P50Us <= 0 || res.P99Us < res.P50Us {
		t.Fatalf("percentiles wrong: p50=%v p99=%v", res.P50Us, res.P99Us)
	}
	surf := s.MapSurface()
	if !strings.Contains(surf, "scale:") {
		t.Fatalf("mesh surface render missing: %q", surf)
	}
	// A torus is the same 2-D grid type and renders its W x H surface:
	// one row per y, two characters per x.
	tor := MustNewSim(Experiment{Topology: Torus(5, 3), Policy: PolicyDeterministic, Seed: 9})
	if err := tor.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 1500, Start: 0, End: 200 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	tor.Execute(Second)
	rows := strings.Split(tor.MapSurface(), "\n")
	if len(rows) != 5 || !strings.HasPrefix(rows[0], "y=2 |") || len(rows[0]) != len("y=2 |")+2*5 ||
		!strings.HasPrefix(rows[3], "scale:") {
		t.Fatalf("torus surface is not a 5x3 grid: %q", rows)
	}
	// Non-mesh falls back to the tabular map.
	ft := MustNewSim(Experiment{Topology: FatTree(2, 2), Policy: PolicyDeterministic, Seed: 9})
	if strings.Contains(ft.MapSurface(), "scale:") {
		t.Fatal("fat tree rendered as a grid")
	}
}

func TestGrid3DExperiment(t *testing.T) {
	// DRB on a 3-D torus (4x4x4 = 64 nodes): lossless, adaptive, and the
	// dateline VCs keep every ring safe.
	s := MustNewSim(Experiment{Topology: Torus3D(4, 4, 4), Policy: PolicyPRDRB, Seed: 6})
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "transpose", RateMbps: 900,
		Len: 250 * Microsecond, Gap: 250 * Microsecond, Count: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + Second)
	if res.AcceptedRatio != 1 || res.DeliveredPkts == 0 {
		t.Fatalf("3-D torus PR-DRB run broken: %+v", res)
	}
	if res.Stats.PathsOpened == 0 {
		t.Fatal("no adaptation on the 3-D torus")
	}
}

func TestTorusExperiment(t *testing.T) {
	s := MustNewSim(Experiment{Topology: Torus(4, 4), Policy: PolicyDRB, Seed: 5})
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "bitreversal", RateMbps: 800,
		Len: 200 * Microsecond, Gap: 200 * Microsecond, Count: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + Second)
	if res.AcceptedRatio != 1 || res.DeliveredPkts == 0 {
		t.Fatalf("torus DRB run broken: %+v", res)
	}
}

func TestVariableBursts(t *testing.T) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 8})
	specs := []BurstSpec{
		{Pattern: "shuffle", RateMbps: 900, Len: 200 * Microsecond, Gap: 250 * Microsecond},
		{Pattern: "transpose", RateMbps: 900, Len: 200 * Microsecond, Gap: 250 * Microsecond},
	}
	end, err := s.InstallVariableBursts(specs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if end != 6*450*Microsecond {
		t.Fatalf("end = %v", end)
	}
	res := s.Execute(end + Second)
	if res.AcceptedRatio != 1 || res.DeliveredPkts == 0 {
		t.Fatalf("variable bursts broken: %+v", res)
	}
	if res.Stats.ReuseApplications == 0 {
		t.Fatal("no reuse across alternating patterns")
	}
	if _, err := s.InstallVariableBursts(nil, 3); err == nil {
		t.Fatal("empty spec list accepted")
	}
	if _, err := s.InstallVariableBursts([]BurstSpec{{Pattern: "nope", RateMbps: 1, Len: 1, Gap: 1}}, 1); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestFacadeSmallCoverage(t *testing.T) {
	if Grid([]int{3, 3}, true).NumRouters() != 9 {
		t.Fatal("Grid wrong")
	}
	if core.DRBConfig().Predictive || !core.PRFRDRBConfig().Predictive {
		t.Fatal("policy config presets wrong")
	}
	if len(WorkloadNames()) < 10 {
		t.Fatal("workload list short")
	}
	// Knowledge JSON round trip through the facade.
	train := MustNewSim(Experiment{Topology: FatTree(2, 2), Policy: PolicyPRDRB, Seed: 1})
	var buf bytes.Buffer
	if _, err := train.ExportKnowledge().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKnowledge(&buf); err != nil {
		t.Fatal(err)
	}
}
