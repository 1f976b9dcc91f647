package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// congFixture is a hand-built artifact exercising every report section:
// all four link classes (so the dragonfly global-vs-local ratio renders),
// two VCs, FCT classes, attribution with detours, windows and dumps.
func congFixture() *runner.CongArtifact {
	return &runner.CongArtifact{
		Schema: runner.CongArtifactSchema,
		Policy: "pr-drb", Seed: 7, Shards: 2, Topology: "df-4-9-2-2/r36/t72",
		AtNs: 500_000, WindowNs: 10_000,
		Classes: []telemetry.CongClassStatus{
			{Class: "local", Links: 100, Utilization: 0.21, TxBytes: 9_000_000, AvgWaitNs: 310.5, AvgQueueBytes: 420.25, StallNs: 1000},
			{Class: "global", Links: 18, Utilization: 0.63, TxBytes: 5_000_000, AvgWaitNs: 950.25, AvgQueueBytes: 1800.5, StallNs: 40_000},
			{Class: "terminal", Links: 72, Utilization: 0.18, TxBytes: 8_000_000, AvgWaitNs: 120, AvgQueueBytes: 100, StallNs: 0},
			{Class: "injection", Links: 72, Utilization: 0.2, TxBytes: 8_500_000, AvgWaitNs: 80, AvgQueueBytes: 90, StallNs: 0},
		},
		VCBusyNs: []int64{120_000, 80_000}, VCStallNs: []int64{5000, 2000}, AckBusyNs: 9000,
		FCT: []telemetry.FlowClassStatus{
			{Class: "mice", Count: 900, Bytes: 450_000, FCTP50Ns: 4200, FCTP99Ns: 21_000, SlowdownP50: 1.4, SlowdownP99: 6.25},
			{Class: "elephant", Count: 12, Bytes: 30_000_000, FCTP50Ns: 900_000, FCTP99Ns: 2_100_000, SlowdownP50: 1.1, SlowdownP99: 2.3},
		},
		Attribution: &telemetry.AttributionStatus{
			Pkts: 31_000, MeanTotalNs: 5200.5, MeanQueueNs: 2400.25,
			MeanSerNs: 800, MeanAckNs: 64.125, MeanPropNs: 2000.25,
			DetourPkts: 1200, DetourMeanNs: 9800.75,
		},
		Windows: []telemetry.CongWindowStatus{
			{EndNs: 10_000, Util: [4]float64{0.1, 0.3, 0.1, 0.1}, MaxLinkUtil: 0.5, MaxLink: "r3.p2", Drops: 0, StallNs: 0},
			{EndNs: 20_000, Util: [4]float64{0.2, 0.97, 0.2, 0.2}, MaxLinkUtil: 0.99, MaxLink: "r3.p2", Drops: 9, StallNs: 12_000},
		},
		Links: []runner.CongLinkReport{
			{Link: "r3.p2", Class: "global", Utilization: 0.99, TxBytes: 800_000, DeqPkts: 780, AvgWaitNs: 2100.5, AvgQueueBytes: 3000, StallNs: 30_000},
			{Link: "r0.p1", Class: "local", Utilization: 0.4, TxBytes: 400_000, DeqPkts: 390, AvgWaitNs: 300, AvgQueueBytes: 200, StallNs: 0},
			{Link: "nic5", Class: "injection", Utilization: 0.2, TxBytes: 200_000, DeqPkts: 195, AvgWaitNs: 90, AvgQueueBytes: 80, StallNs: 0},
		},
		FlightDumps: 2, FlightEvents: 144,
	}
}

func writeCongFixture(t *testing.T, a *runner.CongArtifact) string {
	t.Helper()
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cong.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCongestionReport(t *testing.T) {
	path := writeCongFixture(t, congFixture())
	dir := t.TempDir()
	args := []string{"congestion", "-artifact", path, "-top", "2", "-csv-dir", dir}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	for _, want := range []string{
		"policy=pr-drb seed=7 shards=2",
		"global-vs-local busy ratio:",
		"latency attribution (31000 delivered packets)",
		"queueing",
		"serialization",
		"ack overhead",
		"detoured           1200 pkts",
		"mice", "elephant",
		"hottest links (top 2 of 3",
		"r3.p2",
		"flight: events=144 dumps=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The hottest-link table is utilization-ordered and capped at -top.
	if strings.Contains(out, "nic5") {
		t.Errorf("top-2 link table includes the third-hottest link:\n%s", out)
	}

	tl, err := os.ReadFile(filepath.Join(dir, "class_timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(tl), "end_us,util_local,util_global,util_terminal,util_injection,max_link_util,max_link,drops,stall_us\n") {
		t.Errorf("timeline header = %q", strings.SplitN(string(tl), "\n", 2)[0])
	}
	if !strings.Contains(string(tl), "20.00,0.2000,0.9700,0.2000,0.2000,0.9900,r3.p2,9,12.00") {
		t.Errorf("timeline row missing:\n%s", tl)
	}
	lk, err := os.ReadFile(filepath.Join(dir, "links.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lk), "r3.p2,global,0.9900,800000,780,2.10,3000.0000,30.00") {
		t.Errorf("links row missing:\n%s", lk)
	}

	// Determinism: a second identical invocation is byte-identical.
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two identical congestion invocations produced different reports")
	}
}

// TestCongestionReportPinned pins the report and both CSVs `prdrbtrace
// congestion` renders from the ft-4-3 artifact TestCongestionArtifactPinned
// (internal/runner) pins. The hashes were recorded before the fabric's
// per-link tables were merged into one walk.
func TestCongestionReportPinned(t *testing.T) {
	s := runner.MustNew(runner.Experiment{
		Policy: runner.PolicyPRDRB, Seed: 1, Congestion: true, CongestionWindow: 10_000,
	})
	if err := s.InstallHeavyTail(runner.HeavyTailSpec{
		CDF: "websearch", MaxFlowBytes: 64 << 10, Pattern: "uniform", PLocal: 0.5,
		LoadMbps: 300, OnMean: 200_000, End: 300_000,
	}); err != nil {
		t.Fatal(err)
	}
	s.Execute(300_000 + sim.Second)
	a, err := s.CongestionArtifact()
	if err != nil {
		t.Fatal(err)
	}
	path := writeCongFixture(t, a)
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"congestion", "-artifact", path, "-csv-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	report := strings.NewReplacer(path, "ARTIFACT", dir, "CSVDIR").Replace(out.String())
	for name, want := range map[string]string{
		"report":             "a323b09a2d7b5f2cb03ca99bcf2cf14c0a176758b2b10c0a8a649e79689597f0",
		"class_timeline.csv": "98e9be92b55e5fe134a9bed9aeee57e618c7e93866f2df073548ce8e0101ebfa",
		"links.csv":          "3a785d3fc2b67e2a101d8b11bcdc34491eaab988f13c070a9b5aeca7512ffe2d",
	} {
		b := []byte(report)
		if name != "report" {
			if b, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != want {
			t.Errorf("%s sha256 %x, want %s", name, got, want)
		}
	}
}

func TestCongestionSchemaRejected(t *testing.T) {
	a := congFixture()
	a.Schema = "bogus-v0"
	path := writeCongFixture(t, a)
	var buf bytes.Buffer
	if err := run([]string{"congestion", "-artifact", path}, &buf); err == nil {
		t.Error("wrong-schema artifact accepted")
	}
	if err := run([]string{"congestion"}, &buf); err == nil {
		t.Error("missing -artifact accepted")
	}
}

func TestFlightValidateSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "dumps.jsonl")
	var buf bytes.Buffer
	var dumps bytes.Buffer
	if err := telemetry.WriteFlightDumps(&dumps, []telemetry.FlightDump{
		{AtNs: 10, Trigger: "drop_burst", Events: []telemetry.FlightEvent{{AtNs: 9, Kind: "drop"}}},
		{AtNs: 20, Trigger: "saturation_onset"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, dumps.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"flight-validate", good}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ok (2 dumps, 1 events)") {
		t.Errorf("unexpected output: %s", buf.String())
	}
	bad := filepath.Join(dir, "bad.jsonl")
	os.WriteFile(bad, []byte("{\"at_ns\":5,\"events\":[]}\n"), 0o644)
	if err := run([]string{"flight-validate", bad}, &buf); err == nil {
		t.Error("trigger-less dump accepted")
	}
}
