package obsflags

import (
	"io"
	"os"
	"os/signal"
	"sync"
)

// Artifact is a run output written atomically: bytes go to a ".tmp"
// sibling and the final name appears only on Commit. An interrupted
// tool therefore never leaves truncated reports, CSVs or JSON
// artifacts behind — a partial file is either still named ".tmp" (and
// removed by the signal handler) or was never created at all.
type Artifact struct {
	f     *os.File
	final string
}

// openArtifacts tracks every in-flight temp file so the SIGINT handler
// can sweep them. Workers create artifacts concurrently, hence the lock.
var openArtifacts = struct {
	sync.Mutex
	m map[*Artifact]struct{}
}{m: map[*Artifact]struct{}{}}

// CreateArtifact opens the temp sibling of path.
func CreateArtifact(path string) (*Artifact, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	a := &Artifact{f: f, final: path}
	openArtifacts.Lock()
	openArtifacts.m[a] = struct{}{}
	openArtifacts.Unlock()
	return a, nil
}

// WriteArtifact publishes what write produces at path, or nothing at all
// when it fails.
func WriteArtifact(path string, write func(io.Writer) error) error {
	a, err := CreateArtifact(path)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

// WriteArtifactBytes publishes data at path.
func WriteArtifactBytes(path string, data []byte) error {
	return WriteArtifact(path, func(w io.Writer) error { _, err := w.Write(data); return err })
}

func (a *Artifact) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit closes the temp file and renames it into place.
func (a *Artifact) Commit() error {
	openArtifacts.Lock()
	delete(openArtifacts.m, a)
	openArtifacts.Unlock()
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.final)
}

// Abort closes and removes the temp file without publishing it.
func (a *Artifact) Abort() {
	openArtifacts.Lock()
	delete(openArtifacts.m, a)
	openArtifacts.Unlock()
	a.f.Close()
	os.Remove(a.f.Name())
}

// installInterruptCleanup makes ^C safe: on SIGINT every in-flight temp
// artifact is closed and removed, then the tool exits 130. Committed
// outputs are untouched — an output directory only ever holds complete
// files.
func installInterruptCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		openArtifacts.Lock()
		for a := range openArtifacts.m {
			a.f.Close()
			os.Remove(a.f.Name())
		}
		openArtifacts.Unlock()
		os.Exit(130)
	}()
}
