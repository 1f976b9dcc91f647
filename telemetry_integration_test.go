package prdrb

import (
	"bytes"
	"encoding/json"
	"testing"

	"prdrb/internal/faults"
	"prdrb/internal/telemetry"
)

// runTracedResilience reproduces one cell of the abl.resilience experiment
// (8x8 mesh, PR-DRB, 4 random link failures hitting mid-run, uniform
// traffic) with tracing attached, and returns the telemetry bundle.
func runTracedResilience(t *testing.T, seed uint64) *telemetry.Telemetry {
	t.Helper()
	tel := telemetry.New(telemetry.Options{Trace: true, Sample: 1})
	topo := Mesh(8, 8)
	s := MustNewSim(Experiment{Topology: topo, Policy: PolicyPRDRB, Seed: seed, Telemetry: tel})
	plan := faults.RandomLinkFaults(topo, seed, 4, 200*Microsecond, 100*Microsecond, 400*Microsecond)
	if _, err := s.InstallFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 200, Start: 0, End: 600 * Microsecond}); err != nil {
		t.Fatal(err)
	}
	s.Execute(Second)
	return tel
}

// Two runs from the same seed must serialize to byte-identical JSONL: the
// trace is part of the reproducibility contract, not a best-effort log.
func TestTraceDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := runTracedResilience(t, 11).Tracer.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := runTracedResilience(t, 11).Tracer.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// Every line a real faulted run emits must validate against the checked-in
// trace-event schema, and the manifest built from its registry against the
// manifest schema.
func TestRealTraceAndManifestValidate(t *testing.T) {
	tel := runTracedResilience(t, 11)
	var buf bytes.Buffer
	if err := tel.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != tel.Tracer.Len() {
		t.Fatalf("validated %d events, tracer recorded %d", n, tel.Tracer.Len())
	}

	m := telemetry.NewManifest("test", map[string]any{"topology": "mesh-8x8"})
	m.Seed = 11
	m.Metrics = tel.Registry.Snapshot()
	m.Trace = &telemetry.TraceInfo{File: "t.jsonl", Chrome: "t.chrome.json", Events: n, Sample: 1}
	raw, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateManifestBytes(raw); err != nil {
		t.Fatal(err)
	}
	if m.Metrics["drb.recoveries"] == 0 {
		t.Fatal("registry snapshot shows no recoveries; scenario lost its teeth")
	}
}

// The observability claim of the abl.resilience experiment: the full
// causal story — a link dies, the source sees the path fail, saturation is
// flagged, an alternative metapath opens, and the flow recovers — must be
// reconstructible from the trace events alone, with no access to simulator
// internals.
func TestResilienceSequenceReconstructibleFromTrace(t *testing.T) {
	var jsonl bytes.Buffer
	if err := runTracedResilience(t, 11).Tracer.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var evs []telemetry.Event
	for dec := json.NewDecoder(&jsonl); dec.More(); {
		var e telemetry.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}

	firstLinkDown := int64(-1)
	for _, e := range evs {
		if e.Kind == telemetry.KindLinkDown {
			firstLinkDown = e.At
			break
		}
	}
	if firstLinkDown < 0 {
		t.Fatal("no link-down event in trace")
	}

	// For every recovery, the same source node must show the earlier
	// stages of the chain, in causal order.
	recoveries := 0
	for _, r := range evs {
		if r.Kind != telemetry.KindRecovery {
			continue
		}
		recoveries++
		var sat, open, fail int64 = -1, -1, -1
		for _, e := range evs {
			if e.At > r.At || e.Src != r.Src {
				continue
			}
			switch {
			case e.Kind == telemetry.KindSaturation && sat < 0:
				sat = e.At
			case e.Kind == telemetry.KindMetapathOpen && open < 0:
				open = e.At
			case e.Kind == telemetry.KindPathFail && e.Dst == r.Dst && fail < 0:
				fail = e.At
			}
		}
		if sat < 0 || open < 0 || fail < 0 {
			t.Fatalf("recovery at t=%d (node %d -> %d): missing chain stages (sat=%d open=%d fail=%d)",
				r.At, r.Src, r.Dst, sat, open, fail)
		}
		if sat > open {
			t.Fatalf("node %d: first metapath-open at t=%d precedes first saturation at t=%d", r.Src, open, sat)
		}
		if fail < firstLinkDown {
			t.Fatalf("node %d: path-fail at t=%d precedes the first link-down at t=%d", r.Src, fail, firstLinkDown)
		}
	}
	if recoveries == 0 {
		t.Fatal("trace contains no recovery events; scenario lost its teeth")
	}
}
