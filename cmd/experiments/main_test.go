package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prdrb"
	"prdrb/internal/telemetry"
)

// Every registered experiment id must be unique and match the id grammar.
func TestRegistrySanity(t *testing.T) {
	idRe := regexp.MustCompile(`^(table|fig|abl|coll|dc)[0-9A-Za-z.]*$`)
	seen := map[string]bool{}
	if len(registry) < 40 {
		t.Fatalf("registry has only %d experiments", len(registry))
	}
	for _, e := range registry {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if !idRe.MatchString(e.id) {
			t.Errorf("bad experiment id %q", e.id)
		}
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %q missing title or runner", e.id)
		}
	}
}

func TestSeedList(t *testing.T) {
	a, b := seedList(4), seedList(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seedList not deterministic")
		}
	}
	uniq := map[uint64]bool{}
	for _, s := range a {
		uniq[s] = true
	}
	if len(uniq) != 4 {
		t.Fatal("seedList produced duplicates")
	}
}

// Smoke: the cheap experiments run to completion in quick mode and write
// non-trivial reports.
func TestQuickExperimentsSmoke(t *testing.T) {
	ctx := &runCtx{seeds: seedList(1), quick: true}
	for _, id := range []string{"table4.1", "table2.1", "fig2.12", "fig4.08", "abl.maxpaths", "dc.dragonfly"} {
		var found *experiment
		for i := range registry {
			if registry[i].id == id {
				found = &registry[i]
			}
		}
		if found == nil {
			t.Fatalf("experiment %q not registered", id)
		}
		var sb strings.Builder
		if err := found.run(ctx, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(sb.String()) < 80 {
			t.Fatalf("%s wrote a suspiciously short report: %q", id, sb.String())
		}
	}
}

// A failing experiment fails alone: a panic on the experiment's goroutine,
// a panic on one of its pool workers and a simulation that refuses its
// scenario are each reported, and the other experiments' reports are still
// committed (the failed ones' partial reports too).
func TestFailingExperimentsLeaveTheRest(t *testing.T) {
	saved := registry
	t.Cleanup(func() { registry = saved })
	register("abl.panics", "panics", func(*runCtx, io.Writer) error { panic("boom") })
	register("abl.workerpanics", "panics on a pool worker", func(ctx *runCtx, w io.Writer) error {
		_, err := parMap(ctx, []int{1, 2, 3}, func(int) (int, error) { panic("worker boom") })
		return err
	})
	register("abl.badscenario", "refused scenario", func(ctx *runCtx, w io.Writer) error {
		_, err := runAll(ctx, prdrb.Scenario{Experiment: prdrb.Experiment{Policy: "bogus"}})
		return err
	})
	var selected []experiment
	for _, e := range registry {
		switch e.id {
		case "abl.panics", "abl.workerpanics", "abl.badscenario", "table4.1", "fig2.12":
			selected = append(selected, e)
		}
	}
	dir := t.TempDir()
	ctx := &runCtx{seeds: seedList(1), quick: true, outDir: dir, procs: 2}
	if failed := runExperiments(ctx, selected, &telemetry.LiveStats{}); failed != 3 {
		t.Fatalf("%d experiments reported failed, want 3", failed)
	}
	for _, e := range selected {
		report, err := os.ReadFile(filepath.Join(dir, e.id+".txt"))
		if err != nil {
			t.Fatalf("%s: no committed report: %v", e.id, err)
		}
		if !strings.HasPrefix(string(report), "# "+e.id+" — ") {
			t.Errorf("%s: report starts %q", e.id, report[:min(len(report), 40)])
		}
	}
	if report, _ := os.ReadFile(filepath.Join(dir, "table4.1.txt")); !strings.Contains(string(report), "verified bijective") {
		t.Errorf("table4.1's report is incomplete:\n%s", report)
	}
}

// TestNegativeStatusIntervalRejected: -status-interval -1us was silently
// replaced by the 100µs default; the run now fails before any experiment
// starts.
func TestNegativeStatusIntervalRejected(t *testing.T) {
	if code := run([]string{"-status-interval", "-1us", "-run", "^table2.1$", "-out", t.TempDir()}); code == 0 {
		t.Error("-status-interval -1us: exit 0")
	}
}

// TestSeedsBelowOneRejected: -seeds 0 once panicked with an index out of
// range and -seeds -1 with a bad slice length; -shards -1 ran serial and
// -trace-sample -5 traced every packet. Each exits 2 with a message.
func TestSeedsBelowOneRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, arg := range []string{"-seeds 0", "-seeds -1", "-shards 0", "-shards -1", "-trace-sample -5"} {
		var stderr strings.Builder
		cmd := exec.Command(bin, append(strings.Fields(arg), "-run", "^table2.1$", "-out", t.TempDir())...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), arg+", want at least 1") {
			t.Errorf("%s: err %v, stderr %q; want exit 2 naming the value", arg, err, stderr.String())
		}
	}
}
