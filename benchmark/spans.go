package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own files. Parent links form the per-cell tree (0 = root);
// spans of one cell share its Cell id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	cell  string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginCell opens the root span of a cell; spans begun until the next
// beginCell carry its id.
func (t *tracer) beginCell(id string) int {
	if t == nil {
		return 0
	}
	t.cell = id
	return t.begin("cell", 0)
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: t.cell,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// seconds returns the durations of every closed span with the given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, header hostHeader, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Header   hostHeader `json:"header"`
		Workload string     `json:"workload"`
		Spans    []span     `json:"spans"`
	}{header, workload, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
