package obsflags

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSharedRecorder: exactly the five flags whose recorder is one per
// process name themselves, and each of them says so in its help.
func TestSharedRecorder(t *testing.T) {
	cases := map[string]string{
		"":                                     "",
		"-pprof=:0 -cpuprofile=x":              "",
		"-trace-sample=4 -status-interval=1ms": "",
		"-trace=t.jsonl":                       "-trace",
		"-manifest=m.json":                     "-manifest",
		"-status=127.0.0.1:0":                  "-status",
		"-perf=p.json":                         "-perf",
		"-perf-trace=p.trace":                  "-perf-trace",
		"-perf=p.json -manifest=m.json":        "-manifest",
	}
	for args, want := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := Register(fs, "t")
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		if got := f.SharedRecorder(); got != want {
			t.Errorf("%q: SharedRecorder() = %q, want %q", args, got, want)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs, "t")
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		shared := map[string]bool{"trace": true, "manifest": true, "status": true, "perf": true, "perf-trace": true}[fl.Name]
		if got := strings.HasSuffix(fl.Usage, sharedNote); got != shared {
			t.Errorf("-%s: help mentions serial execution = %v, want %v", fl.Name, got, shared)
		}
	})
	if n != 9 {
		t.Errorf("Register declared %d flags, want 9", n)
	}
}

// TestWriteArtifactAtomic: the final name appears only for a complete
// write, and no temp sibling survives either way.
func TestWriteArtifactAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	boom := errors.New("boom")
	err := WriteArtifact(path, func(w io.Writer) error {
		io.WriteString(w, `{"half":`)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("failed write left %v behind", left)
	}
	if err := WriteArtifactBytes(path, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{}\n" {
		t.Fatalf("committed %q", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 {
		t.Fatalf("committed write left %v", left)
	}
	if len(openArtifacts.m) != 0 {
		t.Fatalf("%d artifacts still tracked for the SIGINT sweep", len(openArtifacts.m))
	}
}
