package runner

import (
	"bytes"
	"strings"
	"testing"

	"prdrb/internal/core"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// trainingBursts trains a pr-drb fleet on ft-4-3; knowledgeBursts is the
// shorter train imported knowledge is tried on.
var (
	trainingBursts  = BurstSpec{Pattern: "uniform", RateMbps: 600, Len: 250 * sim.Microsecond, Gap: 300 * sim.Microsecond, Count: 6}
	knowledgeBursts = BurstSpec{Pattern: "uniform", RateMbps: 600, Len: 100 * sim.Microsecond, Gap: 100 * sim.Microsecond, Count: 3}
)

func newKnowledgeSim(seed uint64) *Sim {
	return MustNew(Experiment{Topology: topology.NewKAryNTree(4, 3), Policy: PolicyPRDRB, Seed: seed})
}

// runBursts installs a burst train on s and runs it out.
func runBursts(t testing.TB, s *Sim, spec BurstSpec) {
	t.Helper()
	end, err := s.InstallBursts(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Execute(end + 100*sim.Microsecond)
}

// trainedKnowledge runs the burst train under pr-drb and returns the
// solution database it exports, serialized.
func trainedKnowledge(t testing.TB, seed uint64) []byte {
	t.Helper()
	s := newKnowledgeSim(seed)
	runBursts(t, s, trainingBursts)
	var buf bytes.Buffer
	if _, err := s.ExportKnowledge().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportKnowledgeDeterministic: two same-seed trainings export the
// same bytes, solutions in node and destination order.
func TestExportKnowledgeDeterministic(t *testing.T) {
	a, b := trainedKnowledge(t, 1), trainedKnowledge(t, 1)
	k, err := core.ReadKnowledge(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0 // nodes with solutions toward more than one destination
	for _, n := range k.Nodes {
		for _, s := range n.Solutions {
			if s.Dst != n.Solutions[0].Dst {
				multi++
				break
			}
		}
	}
	if multi < 10 {
		t.Fatalf("%d nodes saved solutions toward several destinations; too few to show the export order", multi)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed trainings exported different knowledge files")
	}
}

// validKnowledge is one solution of node 4 toward node 8 on ft-4-3: the
// direct path and a detour through router 40.
const validKnowledge = `{"nodes": [{"node": 4, "solutions": [{"dst": 8, "flows": [[4, 8], [5, 8]], "paths": [
	{"waypoints": [], "latency_ns": 2000, "extra_hops": 0},
	{"waypoints": [40], "latency_ns": 3000, "extra_hops": 2}], "hits": 1}]}]}`

// TestImportKnowledgeRejectsHostile: each edit of a valid file below once
// imported and then panicked in the run, or broke the direct-path-first
// rule the controllers keep. Each must now fail the import; the unedited
// file imports and runs.
func TestImportKnowledgeRejectsHostile(t *testing.T) {
	for _, c := range []struct{ name, old, new string }{
		{"valid", "", ""},
		{"router out of range", "[40]", "[99999]"},
		{"negative router", "[40]", "[-1]"},
		{"destination out of range", `"dst": 8`, `"dst": 64`},
		{"negative destination", `"dst": 8`, `"dst": -3`},
		{"flow source out of range", "[5, 8]", "[64, 8]"},
		{"flow destination negative", "[5, 8]", "[5, -8]"},
		{"negative latency", "3000", "-1"},
		{"negative extra hops", `"extra_hops": 2`, `"extra_hops": -2`},
		{"oversized extra hops", `"extra_hops": 2`, `"extra_hops": 40000`},
		{"no paths", `"paths": [`, `"paths": [], "unread": [`},
		{"too many paths", `"extra_hops": 2}`, `"extra_hops": 2}, {"waypoints": [41], "latency_ns": 1, "extra_hops": 2}, ` +
			`{"waypoints": [42], "latency_ns": 1, "extra_hops": 2}, {"waypoints": [43], "latency_ns": 1, "extra_hops": 2}`},
		{"detour first", `{"waypoints": [], "latency_ns": 2000, "extra_hops": 0}`, `{"waypoints": [41], "latency_ns": 2000, "extra_hops": 2}`},
		{"second direct path", "[40]", "[]"},
		{"direct path charged hops", `"extra_hops": 0`, `"extra_hops": 1`},
	} {
		text := strings.Replace(validKnowledge, c.old, c.new, 1)
		k, err := core.ReadKnowledge(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := newKnowledgeSim(1)
		err = s.ImportKnowledge(k)
		if c.name == "valid" {
			if err != nil || s.Controllers[4].DB().Size() != 1 {
				t.Fatalf("the valid file did not import: %v", err)
			}
			runBursts(t, s, knowledgeBursts)
			continue
		}
		if err == nil {
			t.Errorf("%s: imported", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

// FuzzImportKnowledge reads a knowledge file, imports it into a fresh
// ft-4-3 pr-drb simulation and, if it is accepted, runs a short burst
// train. The outcome must be an error or a finished run, never a panic.
func FuzzImportKnowledge(f *testing.F) {
	f.Add([]byte(validKnowledge))
	f.Add([]byte(strings.Replace(validKnowledge, "[40]", "[99999]", 1)))
	f.Add(trainedKnowledge(f, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := core.ReadKnowledge(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := newKnowledgeSim(1)
		if s.ImportKnowledge(k) != nil {
			return
		}
		runBursts(t, s, knowledgeBursts)
	})
}
