package workloads

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"prdrb/internal/trace"
)

// goldenApps are the applications the benchmark's replay workload runs,
// pinned again at its 20 iterations.
var goldenApps = []string{"lammps-chain", "pop", "nas-mg-a", "sweep3d", "nas-lu"}

// programHashes renders one line per pinned program: the generator, its
// iterations ("default" for the generator's own) and the FNV-64a hash of
// its WriteTrace text.
func programHashes(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	line := func(name string, opt Options, label string) {
		tr, err := ByName(name, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, label, err)
		}
		h := fnv.New64a()
		if err := trace.WriteTrace(h, tr); err != nil {
			t.Fatalf("%s/%s: %v", name, label, err)
		}
		fmt.Fprintf(&sb, "%s %s %016x\n", name, label, h.Sum64())
	}
	for _, name := range Names() {
		line(name, Options{}, "default")
	}
	for _, name := range goldenApps {
		line(name, Options{Iterations: 20}, "20")
	}
	return sb.String()
}

// TestProgramsGolden: every generator emits, event for event, the program
// it emitted when the golden was recorded — however traces are stored.
func TestProgramsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/programs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := programHashes(t); got != string(want) {
		t.Fatalf("generated programs differ from testdata/programs.golden; got:\n%s", got)
	}
}
