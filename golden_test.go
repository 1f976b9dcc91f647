package prdrb

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"prdrb/internal/faults"
)

// goldenPath is the committed reference output of goldenSummaries. It is the
// engine-refactor safety bar: internal changes (event representation, packet
// pooling, metric plumbing, sim assembly) must keep these fixed-seed
// summaries byte-identical. Regenerate only for an intentional behavioral
// change, with:
//
//	GOLDEN_UPDATE=1 go test -run TestGoldenSummaries
const goldenPath = "results/golden.summary.txt"

// goldenSummaries runs one fixed-seed configuration per routing policy (the
// abl.* burst scenario) plus a faulted run per DRB-family tier covering the
// drop/recovery path, and renders every deterministic summary field.
func goldenSummaries(t testing.TB) string {
	var b strings.Builder
	for _, p := range Policies() {
		s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: p, Seed: 42})
		end, err := s.InstallBursts(BurstSpec{
			Pattern: "shuffle", RateMbps: 900,
			Len: 150 * Microsecond, Gap: 150 * Microsecond,
			Count: 2, PatternNodes: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Execute(end + Second)
		fmt.Fprintf(&b, "%s p50=%.3f p99=%.3f saved=%d opened=%d reused=%d acks=%d\n",
			res.String(), res.P50Us, res.P99Us, res.SavedPatterns,
			res.Stats.PathsOpened, res.Stats.PatternsReused, res.Stats.AcksSeen)
	}
	// Faulted runs: links fail mid-burst and repair later, exercising the
	// packet-drop, loss-notification and recovery machinery.
	for _, p := range []Policy{PolicyDeterministic, PolicyDRB, PolicyPRDRB} {
		s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: p, Seed: 23})
		plan := faults.RandomLinkFaults(s.Net.Topo, 23, 3, 50*Microsecond, 100*Microsecond, 300*Microsecond)
		if _, err := s.InstallFaults(plan); err != nil {
			t.Fatal(err)
		}
		s.InstallHotSpot(map[NodeID]NodeID{0: 15, 3: 12, 5: 10, 12: 3, 15: 0, 10: 5}, 1200, 0, 400*Microsecond)
		res := s.Execute(Second)
		fmt.Fprintf(&b, "faulted %s dropped=%d unreachable=%d recoveries=%d\n",
			res.String(), res.DroppedPkts, res.UnreachableMsgs, res.Recoveries)
	}
	return b.String()
}

func TestGoldenSummaries(t *testing.T) {
	got := goldenSummaries(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fixed-seed summaries diverged from golden:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
