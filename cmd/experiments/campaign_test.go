package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prdrb/internal/runner"
	"prdrb/internal/telemetry"
)

// campaignRun drives runCampaign on a manifest under root and returns the
// failed count and the final /fleet snapshot (per-cell states). Every run
// also asserts the directory invariant: nothing but committed files is
// ever left behind.
func campaignRun(t *testing.T, root, manifest string) (int, telemetry.FleetStatus) {
	t.Helper()
	path := filepath.Join(root, "manifest.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	board := telemetry.NewBoard()
	failed := runCampaign(&runCtx{procs: 2}, campaignOpts{
		manifestPath: path, dir: filepath.Join(root, "camps"), board: board,
	})
	fleet, _ := board.Fleet()
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err == nil && (strings.HasSuffix(p, ".ckpt") || strings.Contains(d.Name(), ".tmp")) {
			t.Errorf("campaign left %s behind", p)
		}
		return nil
	})
	return failed, fleet
}

// cellFiles lists the committed cell JSONs under the campaign root.
func cellFiles(t *testing.T, root string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "camps", "*", "*__*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// states folds the fleet snapshot into cell name -> state, checking that
// virtual_ns only ever reads 0 (not committed) or the horizon (committed).
func states(t *testing.T, f telemetry.FleetStatus) map[string]string {
	t.Helper()
	m := make(map[string]string, len(f.Cells))
	for _, c := range f.Cells {
		m[c.Cell] = c.State
		want := int64(0)
		if c.State == "done" || c.State == "skipped" {
			want = c.HorizonNs
		}
		if c.VirtualNs != want {
			t.Errorf("%s: %s at virtual_ns=%d, want %d", c.Cell, c.State, c.VirtualNs, want)
		}
	}
	return m
}

// A manifest that cannot be expanded fails the campaign before any cell
// runs: non-zero failed count, no cell file.
func TestCampaignRejectsBadManifests(t *testing.T) {
	for name, manifest := range map[string]string{
		"malformed":    `{"topologies": ["mesh-4x4"`,
		"empty axis":   `{"topologies":["mesh-4x4"],"policies":[],"patterns":["uniform"],"rates_mbps":[200],"seeds":[1],"duration":"50us"}`,
		"bad duration": `{"topologies":["mesh-4x4"],"policies":["drb"],"patterns":["uniform"],"rates_mbps":[200],"seeds":[1],"duration":"soon"}`,
		// Two cells of one name: a restart would count one file twice and
		// two workers would race on its path.
		"duplicate seed": `{"topologies":["mesh-4x4"],"policies":["drb"],"patterns":["uniform"],"rates_mbps":[200],"seeds":[1,1],"duration":"50us"}`,
		"path in value":  `{"topologies":["../mesh-4x4"],"policies":["drb"],"patterns":["uniform"],"rates_mbps":[200],"seeds":[1],"duration":"50us"}`,
	} {
		root := t.TempDir()
		if failed, _ := campaignRun(t, root, manifest); failed == 0 {
			t.Errorf("%s manifest: campaign reported no failure", name)
		}
		if files := cellFiles(t, root); len(files) != 0 {
			t.Errorf("%s manifest: committed %v", name, files)
		}
	}
}

// One bad cell is recorded as failed and the campaign keeps going: the
// other cells commit, and the run as a whole reports the failure. The
// hostile cells here are a topology spec that does not parse and a bit
// permutation on a 9-node mesh.
func TestCampaignRecordsFailedCellsAndContinues(t *testing.T) {
	root := t.TempDir()
	failed, fleet := campaignRun(t, root, `{"topologies":["mesh-4x4","mesh-0x0","mesh-3x3"],
		"policies":["drb"],"patterns":["uniform","shuffle"],"rates_mbps":[200],"seeds":[1],"duration":"50us"}`)
	if failed != 3 {
		t.Fatalf("failed = %d, want 3 (two mesh-0x0 cells and mesh-3x3 shuffle)", failed)
	}
	want := map[string]string{
		"mesh-4x4__drb__uniform__200__s1": "done",
		"mesh-4x4__drb__shuffle__200__s1": "done",
		"mesh-0x0__drb__uniform__200__s1": "failed",
		"mesh-0x0__drb__shuffle__200__s1": "failed",
		"mesh-3x3__drb__uniform__200__s1": "done",
		"mesh-3x3__drb__shuffle__200__s1": "failed",
	}
	got := states(t, fleet)
	for cell, st := range want {
		if got[cell] != st {
			t.Errorf("cell %s: state %q, want %q", cell, got[cell], st)
		}
	}
	if fleet.Done != 3 || fleet.Failed != 3 || len(cellFiles(t, root)) != 3 {
		t.Fatalf("fleet %+v with %d cell files, want 3 done / 3 failed / 3 files", fleet, len(cellFiles(t, root)))
	}
}

// Resume is cell-granular: a second run skips every committed cell, and
// deleting one cell JSON reruns exactly that cell.
func TestCampaignResumeSkipsCommittedCells(t *testing.T) {
	root := t.TempDir()
	manifest := `{"topologies":["mesh-4x4"],"policies":["deterministic","pr-drb"],
		"patterns":["uniform"],"rates_mbps":[200],"seeds":[1,2],"duration":"50us"}`
	if failed, fleet := campaignRun(t, root, manifest); failed != 0 || fleet.Done != 4 {
		t.Fatalf("first run: failed=%d fleet=%+v", failed, fleet)
	}
	files := cellFiles(t, root)
	if len(files) != 4 {
		t.Fatalf("first run committed %d cells, want 4", len(files))
	}
	if failed, fleet := campaignRun(t, root, manifest); failed != 0 || fleet.Skipped != 4 || fleet.Done != 0 {
		t.Fatalf("second run: failed=%d fleet=%+v, want all 4 skipped", failed, fleet)
	}
	if err := os.Remove(files[2]); err != nil {
		t.Fatal(err)
	}
	failed, fleet := campaignRun(t, root, manifest)
	if failed != 0 || fleet.Skipped != 3 || fleet.Done != 1 {
		t.Fatalf("third run: failed=%d fleet=%+v, want 3 skipped + 1 done", failed, fleet)
	}
	rerun := strings.TrimSuffix(filepath.Base(files[2]), ".json")
	if st := states(t, fleet)[rerun]; st != "done" {
		t.Fatalf("deleted cell %s ended %q, want done", rerun, st)
	}
	if len(cellFiles(t, root)) != 4 {
		t.Fatalf("third run left %d cell files, want 4", len(cellFiles(t, root)))
	}
}

// An interrupted campaign restarts where it stopped: a child process (this
// test binary, re-executed as experiments -campaign -procs 1) gets SIGINT
// once a cell is committed and exits 130; the restart skips exactly the
// committed cells, runs the rest without a failure and leaves no
// temporary file.
func TestCampaignInterruptRestart(t *testing.T) {
	const manifest = `{"topologies":["ft-4-3"],"policies":["pr-drb"],"patterns":["shuffle","uniform"],
		"rates_mbps":[600],"seeds":[1,2,3],"duration":"400us"}`
	if root := os.Getenv("PRDRB_CAMPAIGN_CHILD"); root != "" {
		os.Exit(run([]string{"-campaign", filepath.Join(root, "manifest.json"), "-campaign-dir", filepath.Join(root, "camps"), "-procs", "1"}))
	}
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	child := exec.Command(os.Args[0], "-test.run=^TestCampaignInterruptRestart$")
	child.Env = append(os.Environ(), "PRDRB_CAMPAIGN_CHILD="+root)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	// Interrupt once a cell is committed; the campaign may end first.
	var err error
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(20 * time.Millisecond) {
		select {
		case err = <-exited:
		default:
			if len(cellFiles(t, root)) == 0 && time.Now().Before(deadline) {
				continue
			}
			child.Process.Signal(os.Interrupt)
			err = <-exited
		}
		break
	}
	committed := len(cellFiles(t, root))
	if code := child.ProcessState.ExitCode(); code != 130 && (code != 0 || committed != 6) {
		t.Errorf("interrupted campaign ended with %v and %d cells, want exit status 130, or 0 with all 6", err, committed)
	}
	if committed == 0 {
		t.Fatal("no cell committed before the interrupt")
	}
	failed, fleet := campaignRun(t, root, manifest)
	if failed != 0 || fleet.Skipped != committed || fleet.Done != 6-committed {
		t.Fatalf("restart after %d committed cells: failed=%d skipped=%d done=%d", committed, failed, fleet.Skipped, fleet.Done)
	}
}

// A flag that attaches one per-process recorder — here -status, which
// brings the shared telemetry bundle and board — runs the campaign's cells
// one at a time whatever -procs says, as it does experiments: concurrent
// cells once raced on the shared registry (run this under -race).
func TestCampaignSharedRecorderRunsSerially(t *testing.T) {
	tel, status, every, live := runner.DefaultTelemetry, runner.DefaultStatus, runner.DefaultStatusEvery, runner.DefaultLive
	t.Cleanup(func() {
		runner.DefaultTelemetry, runner.DefaultStatus, runner.DefaultStatusEvery, runner.DefaultLive = tel, status, every, live
	})
	root := t.TempDir()
	path := filepath.Join(root, "manifest.json")
	manifest := `{"topologies":["mesh-4x4"],"policies":["deterministic","pr-drb"],
		"patterns":["uniform"],"rates_mbps":[200],"seeds":[1,2],"duration":"50us"}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	code := run([]string{"-campaign", path, "-campaign-dir", filepath.Join(root, "camps"), "-out", filepath.Join(root, "out"),
		"-procs", "4", "-status", "127.0.0.1:0"})
	if code != 0 {
		t.Fatalf("campaign exited %d", code)
	}
	if files := cellFiles(t, root); len(files) != 4 {
		t.Fatalf("campaign committed %d cells, want 4", len(files))
	}
}

// FuzzCampaignManifest: no manifest panics decoding, validation or
// expansion, and every accepted manifest expands to cells with unique
// names that stay inside the campaign directory.
func FuzzCampaignManifest(f *testing.F) {
	for _, m := range []string{
		`{"topologies":["ft-4-3"],"policies":["pr-drb"],"patterns":["shuffle","uniform"],"rates_mbps":[600],"seeds":[1,2,3],"duration":"400us"}`,
		`{"topologies":["mesh-4x4"],"policies":["drb"],"patterns":["uniform"],"rates_mbps":[200],"seeds":[1,1],"duration":"50us"}`,
		`{"topologies":["a__b","a"],"policies":["c","b__c"],"patterns":["p"],"rates_mbps":[1,1.0],"seeds":[0],"duration":"1ns"}`,
		`{"topologies":["../x"],"policies":["/"],"patterns":[""],"rates_mbps":[-0,0],"seeds":[18446744073709551615],"duration":"1h","shards":-3}`,
	} {
		f.Add([]byte(m))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m campaignManifest
		if json.Unmarshal(raw, &m) != nil {
			return
		}
		if _, err := m.validate(); err != nil {
			return
		}
		cells := m.expand()
		seen := make(map[string]bool, len(cells))
		for _, c := range cells {
			if seen[c.Name] {
				t.Fatalf("two cells named %q", c.Name)
			}
			seen[c.Name] = true
			if strings.ContainsAny(c.Name, `/\`) || filepath.Base(c.Name) != c.Name {
				t.Fatalf("cell name %q leaves the campaign directory", c.Name)
			}
		}
	})
}
