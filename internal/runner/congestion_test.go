package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"prdrb/internal/ckpt"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

const congTestHorizon = sim.Time(500_000)

// congTestSim builds a congestion-enabled simulation under heavy-tailed
// load on the default fat-tree.
func congTestSim(t *testing.T, shards int) *Sim {
	t.Helper()
	s := MustNew(Experiment{
		Policy: PolicyPRDRB, Seed: 21, Shards: shards,
		Congestion: true, CongestionWindow: 10_000,
	})
	if err := s.InstallHeavyTail(HeavyTailSpec{
		CDF: "websearch", MaxFlowBytes: 64 << 10,
		LoadMbps: 300, OnMean: 50_000, OffMean: 25_000, End: 150_000,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func artifactJSON(t *testing.T, s *Sim) []byte {
	t.Helper()
	a, err := s.CongestionArtifact()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCongestionArtifactContent checks the weather map, FCT classes and
// latency attribution a loaded run must produce.
func TestCongestionArtifactContent(t *testing.T) {
	s := congTestSim(t, 1)
	s.Execute(congTestHorizon)
	a, err := s.CongestionArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != CongArtifactSchema {
		t.Fatalf("schema = %q", a.Schema)
	}
	if len(a.Windows) < 10 {
		t.Fatalf("only %d weather-map windows over a 500µs run at 10µs cadence", len(a.Windows))
	}
	if len(a.Links) == 0 {
		t.Fatal("no per-link rows")
	}
	for _, l := range a.Links {
		if l.Utilization < 0 || l.Utilization > 1.0001 {
			t.Fatalf("link %s utilization %f out of range", l.Link, l.Utilization)
		}
	}
	if len(a.FCT) == 0 {
		t.Fatal("no flow-class completion stats despite completed messages")
	}
	for _, c := range a.FCT {
		if c.Count <= 0 || c.FCTP99Ns < c.FCTP50Ns {
			t.Fatalf("implausible FCT row %+v", c)
		}
	}
	at := a.Attribution
	if at == nil || at.Pkts == 0 {
		t.Fatal("no latency attribution")
	}
	// The split must reassemble into the mean total exactly (propagation is
	// the remainder by construction).
	if got := at.MeanQueueNs + at.MeanSerNs + at.MeanPropNs; got < at.MeanTotalNs*0.999 || got > at.MeanTotalNs*1.001 {
		t.Fatalf("attribution split %f does not sum to mean total %f", got, at.MeanTotalNs)
	}
	if at.MeanSerNs <= 0 || at.MeanPropNs <= 0 {
		t.Fatalf("degenerate attribution %+v", at)
	}
}

// TestCongestionArtifactDeterministic pins the byte-identical contract:
// two identical-seed runs must produce identical artifact JSON, serial and
// sharded.
func TestCongestionArtifactDeterministic(t *testing.T) {
	for _, shards := range []int{1, 2} {
		run := func() []byte {
			s := congTestSim(t, shards)
			s.Execute(s.AlignCheckpoint(congTestHorizon))
			return artifactJSON(t, s)
		}
		if a, b := run(), run(); !bytes.Equal(a, b) {
			t.Errorf("shards=%d: artifact differs between identical-seed runs", shards)
		}
	}
}

// TestCongestionDisabledIdentical is the exactly-free gate: building with
// congestion observability must not change any physical result of the
// run (the sampler's final self-scheduled tick may extend the drained
// clock by up to one window, like the status sampler).
func TestCongestionDisabledIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		run := func(congestion bool) Results {
			s := MustNew(Experiment{
				Policy: PolicyPRDRB, Seed: 42, Shards: shards,
				Congestion: congestion, CongestionWindow: 10_000,
			})
			if err := s.InstallPattern(PatternSpec{Pattern: "shuffle", RateMbps: 400, Start: 0, End: 200_000}); err != nil {
				t.Fatal(err)
			}
			return s.Execute(2_000_000)
		}
		plain := run(false)
		observed := run(true)
		if observed.Elapsed < plain.Elapsed || observed.Elapsed > plain.Elapsed+10_000 {
			t.Errorf("shards=%d: drained clock %d vs %d, want within one window",
				shards, observed.Elapsed, plain.Elapsed)
		}
		plain.Elapsed, observed.Elapsed = 0, 0
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("shards=%d: results changed with congestion sampling on:\nplain:    %+v\nobserved: %+v",
				shards, plain, observed)
		}
	}
}

// TestCongestionArtifactRequiresEnable: the artifact is an explicit
// opt-in; a default build must refuse it rather than return zeros.
func TestCongestionArtifactRequiresEnable(t *testing.T) {
	s := MustNew(Experiment{Policy: PolicyAdaptive, Seed: 1})
	if _, err := s.CongestionArtifact(); err == nil {
		t.Fatal("CongestionArtifact succeeded without Experiment.Congestion")
	}
	if s.FlightDumps() != nil {
		t.Fatal("FlightDumps non-nil without congestion")
	}
}

// TestCongestionCheckpointRoundTrip: a resumed run replays the congestion
// sampler with everything else and continues to the artifact of the
// uninterrupted run, byte for byte.
func TestCongestionCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cong.ckpt")
	s := congTestSim(t, 1)
	s.Execute(200_000)
	f, err := s.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteFileAtomic(path, ckpt.Encode(f)); err != nil {
		t.Fatal(err)
	}
	s.Execute(congTestHorizon)
	want := artifactJSON(t, s)

	r := congTestSim(t, 1)
	if _, err := r.Resume(path); err != nil {
		t.Fatal(err)
	}
	r.Execute(congTestHorizon)
	if got := artifactJSON(t, r); !bytes.Equal(got, want) {
		t.Fatal("artifact after checkpoint/resume differs from the uninterrupted run")
	}
}

// TestCongestionStatusPublished: with a status board attached, the
// sampler publishes /congestion snapshots with monotonic sequence numbers
// and the same aggregates the artifact reports.
func TestCongestionStatusPublished(t *testing.T) {
	board := telemetry.NewBoard()
	prev := DefaultStatus
	DefaultStatus = board
	defer func() { DefaultStatus = prev }()

	s := congTestSim(t, 1)
	s.Execute(congTestHorizon)
	st, ok := board.Congestion()
	if !ok {
		t.Fatal("no congestion snapshot published")
	}
	if st.Seq == 0 || st.Windows == 0 {
		t.Fatalf("empty congestion snapshot: %+v", st)
	}
	if len(st.Classes) == 0 || st.FCT == nil {
		t.Fatalf("snapshot missing aggregates: %+v", st)
	}
	if len(st.Recent) == 0 {
		t.Fatal("no recent windows in snapshot")
	}
}

// TestCongestionArtifactPinned pins the artifact `prdrbsim -congestion-out`
// writes, serial and on 2 shards, for two cells under pr-drb (websearch
// capped at 64 KiB, 300 Mb/s for 300µs, seed 1): the smoke gate's ft-4-3,
// which has no global links, and df-4-9-2-2, which has all four link
// classes. The hashes were recorded before the fabric's per-link tables
// were merged into one walk; a change that means to alter when windows
// close or what they fold re-records them from that command's output.
func TestCongestionArtifactPinned(t *testing.T) {
	for _, c := range []struct {
		topo string
		want map[int]string
	}{
		{"ft-4-3", map[int]string{
			1: "0d95e2476296c5dce031cc43ad7c2a48c9901a845728e125db97366888480e87",
			2: "ee6374bf38fcd5a9784edbd326570e04f23c3602ccaf4f46926f554ddbcfb7e7",
		}},
		{"df-4-9-2-2", map[int]string{
			1: "839e451b20b9eb5e93e832faa933e7973f6e26191f8e8f2b6e7d5a9262a944d7",
			2: "6733ca3f56b174dfd1f30b86dc62ba17de8dcfce7aa7b32935bee97e3fa4469a",
		}},
	} {
		for _, shards := range []int{1, 2} {
			got := sha256.Sum256(append(artifactJSON(t, pinnedCongSim(t, c.topo, shards)), '\n'))
			if hex.EncodeToString(got[:]) != c.want[shards] {
				t.Errorf("%s shards=%d: congestion artifact sha256 %x, want %s", c.topo, shards, got, c.want[shards])
			}
		}
	}
}

// pinnedCongSim runs one TestCongestionArtifactPinned cell to its drained end.
func pinnedCongSim(t *testing.T, topo string, shards int) *Sim {
	t.Helper()
	tp, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(Experiment{
		Topology: tp, Policy: PolicyPRDRB, Seed: 1, Shards: shards,
		Congestion: true, CongestionWindow: 10_000,
	})
	if err := s.InstallHeavyTail(HeavyTailSpec{
		CDF: "websearch", MaxFlowBytes: 64 << 10, Pattern: "uniform", PLocal: 0.5,
		LoadMbps: 300, OnMean: 200_000, End: 300_000,
	}); err != nil {
		t.Fatal(err)
	}
	s.Execute(300_000 + sim.Second)
	return s
}

// TestCongestionWindowCostFlat closes windows on idle fabrics, where no
// anomaly trigger fires, and counts what one close allocates: the same
// on the 64-node fat tree as on the 4096-node dragonfly, and well under a
// kilobyte — a close folds the fabric in place rather than building a
// per-link table.
func TestCongestionWindowCostFlat(t *testing.T) {
	const windows = 50
	allocs := map[string]float64{}
	for _, topo := range []string{"ft-4-3", "df-16-32-8-8"} {
		tp, err := topology.ByName(topo)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(Experiment{Topology: tp, Policy: PolicyPRDRB, Seed: 1, Congestion: true, CongestionWindow: 10_000})
		cs := s.cong
		now := sim.Time(0)
		closeNext := func() {
			now += cs.window
			cs.closeWindow(now)
		}
		closeNext() // the first two closes size the tables later closes reuse
		closeNext()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[topo] = testing.AllocsPerRun(windows, closeNext)
		runtime.ReadMemStats(&after)
		perWindow := float64(after.TotalAlloc-before.TotalAlloc) / (windows + 1)
		t.Logf("%s: %.0f allocs, %.0f B per window", topo, allocs[topo], perWindow)
		if topo == "df-16-32-8-8" && perWindow >= 1024 {
			t.Errorf("%s: a window close allocates %.0f B, want < 1 KiB", topo, perWindow)
		}
		if len(cs.windows) != windows+3 {
			t.Fatalf("%s: %d windows closed, want %d", topo, len(cs.windows), windows+3)
		}
	}
	if allocs["ft-4-3"] != allocs["df-16-32-8-8"] {
		t.Errorf("allocations per window grow with the fabric: %v", allocs)
	}
}

// TestCongestionReadersShareOneWalk: a window close walks the fabric's
// links once, and every reader at the same quiescent point — the
// /congestion snapshot, the 13 cong.* gauges of a registry snapshot, the
// artifact — reads that walk rather than walking again. A value planted in
// the kept table after the walk shows through each reader; a fresh walk
// would have replaced it.
func TestCongestionReadersShareOneWalk(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 1, Congestion: true, CongestionWindow: 10_000, Telemetry: tel})
	cs := s.cong
	cs.board = telemetry.NewBoard()
	s.Eng.AdvanceTo(10_000)
	cs.closeWindow(10_000)
	cs.prev.AckBusyNs = 777 // the closed-on walk
	cs.publish(10_000)
	if st, _ := cs.board.Congestion(); st.AckBusyNs != 777 {
		t.Errorf("/congestion read ack_busy_ns %d, want the close's walk (777)", st.AckBusyNs)
	}
	if got := tel.Registry.Snapshot()["cong.ack_busy_ns"]; got != 777 {
		t.Errorf("cong.ack_busy_ns = %d at the close's point, want the close's walk (777)", got)
	}
	if a, err := s.CongestionArtifact(); err != nil || a.AckBusyNs != 777 {
		t.Errorf("artifact ack_busy_ns %v (err %v), want the close's walk (777)", a.AckBusyNs, err)
	}
	// Between closes, one registry snapshot walks once for all its gauges.
	s.Eng.AdvanceTo(15_000)
	if got := tel.Registry.Snapshot()["cong.ack_busy_ns"]; got != 0 {
		t.Fatalf("cong.ack_busy_ns = %d on an idle fabric", got)
	}
	cs.cur.AckBusyNs = 888
	if got := tel.Registry.Snapshot()["cong.ack_busy_ns"]; got != 888 {
		t.Errorf("a second snapshot at the same point walked again (cong.ack_busy_ns = %d, want 888)", got)
	}
}
