package telemetry

import (
	"encoding/json"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// ManifestSchemaID identifies the manifest format; bump on breaking
// changes together with schema/run-manifest.schema.json.
const ManifestSchemaID = "prdrb/run-manifest/v1"

// Manifest is the reproducibility record written next to a run's outputs:
// what was run (config, seed), by what code (git describe, Go version),
// when and for how long (wall clock), and what it counted (the metrics
// registry snapshot). Together with the deterministic engine, the manifest
// makes every experiment re-runnable from its artifact alone.
type Manifest struct {
	Schema      string           `json:"schema"`
	Name        string           `json:"name"`
	CreatedAt   string           `json:"created_at"` // RFC 3339, wall clock
	GitDescribe string           `json:"git_describe"`
	GoVersion   string           `json:"go_version"`
	Seed        uint64           `json:"seed"`
	Config      map[string]any   `json:"config"`
	WallTimeSec float64          `json:"wall_time_sec"`
	Metrics     map[string]int64 `json:"metrics"`
	Trace       *TraceInfo       `json:"trace,omitempty"`
}

// TraceInfo records the trace artifacts a run emitted.
type TraceInfo struct {
	File   string `json:"file"`   // JSONL event log
	Chrome string `json:"chrome"` // Chrome trace-event file (Perfetto)
	Events int    `json:"events"`
	Sample int    `json:"sample"` // 1-in-N packet sampling divisor
}

// NewManifest starts a manifest stamped with the current environment.
// config must be JSON-serializable; the caller fills Seed, Metrics,
// WallTimeSec and Trace before writing.
func NewManifest(name string, config map[string]any) *Manifest {
	if config == nil {
		config = map[string]any{}
	}
	return &Manifest{
		Schema:      ManifestSchemaID,
		Name:        name,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		Config:      config,
		Metrics:     map[string]int64{},
	}
}

// GitDescribe returns `git describe --always --dirty` of the working
// tree, or "unknown" when git or the repository is unavailable (manifests
// must never fail a run).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(out))
	if s == "" {
		return "unknown"
	}
	return s
}

// MarshalIndent renders the manifest as stable, human-diffable JSON.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
