package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prdrb/internal/sim"
)

// Events returns the recorded event log (the tracer retains ownership).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	tr.BeginRun()
	tr.PacketInjected(0, 1, 0, 1, 64)
	tr.PacketHop(0, 1, 0, 0, 0)
	tr.PacketDelivered(0, 1, 0, 1, 0, 0)
	tr.PacketDropped(0, 1, 0, 1, 0)
	tr.Unreachable(0, 0, 1)
	tr.Control(0, KindSaturation, 0, 1, 0, 0)
	tr.RouterEvent(0, KindLinkDown, 0, 0, 0)
	if tr.Sampled(0) {
		t.Fatal("nil tracer must never sample")
	}
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must report empty state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4)
	kept := 0
	for pkt := uint64(0); pkt < 100; pkt++ {
		if tr.Sampled(pkt) {
			kept++
		}
	}
	if kept != 25 {
		t.Fatalf("1-in-4 sampling kept %d of 100", kept)
	}
	if all := NewTracer(0); all.Sample() != 1 {
		t.Fatalf("sample<=1 should clamp to 1, got %d", all.Sample())
	}
}

func TestTracerRunScoping(t *testing.T) {
	tr := NewTracer(1)
	tr.BeginRun()
	tr.PacketInjected(10, 1, 0, 3, 64)
	tr.BeginRun()
	tr.PacketInjected(10, 1, 0, 3, 64)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[0].Run != 0 || evs[1].Run != 1 {
		t.Fatalf("run scoping wrong: %d, %d", evs[0].Run, evs[1].Run)
	}
}

// buildSampleTrace emits one event of every kind so serialization and
// schema tests cover the full enum.
func buildSampleTrace() *Tracer {
	tr := NewTracer(1)
	tr.BeginRun()
	tr.PacketInjected(100, 7, 0, 15, 2048)
	tr.PacketHop(250, 7, 3, 1, 50)
	tr.PacketDelivered(900, 7, 0, 15, 800, 9)
	tr.PacketInjected(120, 8, 2, 9, 64)
	tr.PacketDropped(400, 8, 2, 9, 5)
	tr.Unreachable(500, 4, 11)
	tr.Control(600, KindSaturation, 0, 15, 700, 0)
	tr.Control(610, KindMetapathOpen, 0, 15, 0, 2)
	tr.Control(620, KindMetapathClose, 0, 15, 0, 1)
	tr.Control(630, KindSolDBHit, 0, 15, 0, 3)
	tr.Control(640, KindSolDBMiss, 0, 15, 0, 3)
	tr.Control(650, KindSolDBSave, 0, 15, 0, 4)
	tr.Control(660, KindRecovery, 0, 15, 5000, 0)
	tr.Control(670, KindPathFail, 0, 15, 0, 0)
	tr.Control(680, KindWatchdog, 0, 15, 0, 0)
	tr.RouterEvent(700, KindPredAck, 3, 1, 2)
	tr.RouterEvent(710, KindLinkDown, 3, 1, 0)
	tr.RouterEvent(720, KindLinkUp, 3, 1, 0)
	tr.RouterEvent(730, KindLinkDegrade, 3, 1, 250)
	return tr
}

func TestWriteJSONLValidatesAndIsDeterministic(t *testing.T) {
	tr := buildSampleTrace()
	if len(allKinds()) != 18 {
		t.Fatalf("allKinds() lists %d kinds, expected 18", len(allKinds()))
	}
	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL serialization is not byte-stable")
	}
	n, err := ValidateTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails its own schema: %v", err)
	}
	if n != tr.Len() {
		t.Fatalf("validated %d events, tracer holds %d", n, tr.Len())
	}
}

func TestValidateTraceLineRejectsBadEvents(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     `{"at":0,"run":0,"kind":"warp","pkt":-1,"src":0,"dst":1,"router":-1,"port":-1,"dur":0,"val":0}`,
		"missing field":    `{"at":0,"run":0,"kind":"inject","pkt":1,"src":0,"dst":1,"router":-1,"port":-1,"dur":0}`,
		"extra field":      `{"at":0,"run":0,"kind":"inject","pkt":1,"src":0,"dst":1,"router":-1,"port":-1,"dur":0,"val":0,"x":1}`,
		"negative time":    `{"at":-5,"run":0,"kind":"inject","pkt":1,"src":0,"dst":1,"router":-1,"port":-1,"dur":0,"val":0}`,
		"float packet id":  `{"at":0,"run":0,"kind":"inject","pkt":1.5,"src":0,"dst":1,"router":-1,"port":-1,"dur":0,"val":0}`,
		"not json":         `inject at t=0`,
		"trailing garbage": `{"at":0,"run":0,"kind":"inject","pkt":1,"src":0,"dst":1,"router":-1,"port":-1,"dur":0,"val":0} {}`,
	}
	for name, line := range cases {
		if err := ValidateTraceLine([]byte(line)); err == nil {
			t.Errorf("%s: validator accepted %s", name, line)
		}
	}
}

func TestWriteChromeTraceLoadsAsJSON(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var begins, ends, slices, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			begins++
		case "e":
			ends++
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("async span pairs unbalanced: %d begins, %d ends", begins, ends)
	}
	if slices != 1 {
		t.Fatalf("want 1 hop slice, got %d", slices)
	}
	if instants == 0 {
		t.Fatal("control events should emit instants")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	depth := int64(7)
	r.Gauge("engine.queue_peak", func() int64 { return depth })
	snap := r.Snapshot()
	if snap["engine.queue_peak"] != 7 {
		t.Fatalf("gauge snapshot = %d, want 7", snap["engine.queue_peak"])
	}
	depth = 11
	if r.Snapshot()["engine.queue_peak"] != 11 {
		t.Fatal("gauges must be read at snapshot time")
	}
}

func TestManifestRoundTripValidates(t *testing.T) {
	m := NewManifest("abl.resilience", map[string]any{
		"topology": "mesh8x8", "policy": "pr-drb", "nodes": 64,
	})
	m.Seed = 42
	m.WallTimeSec = 1.25
	m.Metrics = map[string]int64{"engine.events_processed": 123456}
	m.Trace = &TraceInfo{File: "trace.jsonl", Chrome: "trace.chrome.json", Events: 99, Sample: 8}
	b, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifestBytes(b); err != nil {
		t.Fatalf("manifest fails its own schema: %v\n%s", err, b)
	}
	if m.GitDescribe == "" || m.GoVersion == "" || m.CreatedAt == "" {
		t.Fatal("environment stamps missing")
	}
}

func TestValidateManifestRejectsBadDocs(t *testing.T) {
	good := NewManifest("x", nil)
	good.Metrics = map[string]int64{"a": 1}
	base, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(base, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string][]byte{
		"wrong schema id": mutate(func(m map[string]any) { m["schema"] = "prdrb/other/v1" }),
		"missing seed":    mutate(func(m map[string]any) { delete(m, "seed") }),
		"string metric":   mutate(func(m map[string]any) { m["metrics"] = map[string]any{"a": "lots"} }),
		"unknown field":   mutate(func(m map[string]any) { m["extra"] = true }),
		"negative wall":   mutate(func(m map[string]any) { m["wall_time_sec"] = -1 }),
	}
	for name, doc := range cases {
		if err := ValidateManifestBytes(doc); err == nil {
			t.Errorf("%s: validator accepted bad manifest", name)
		}
	}
}

func TestSchemaEnumMatchesKinds(t *testing.T) {
	var schema struct {
		Properties struct {
			Kind struct {
				Enum []string `json:"enum"`
			} `json:"kind"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(traceEventSchemaJSON, &schema); err != nil {
		t.Fatal(err)
	}
	want := allKinds()
	if len(schema.Properties.Kind.Enum) != len(want) {
		t.Fatalf("schema enum has %d kinds, code has %d", len(schema.Properties.Kind.Enum), len(want))
	}
	set := map[string]bool{}
	for _, k := range schema.Properties.Kind.Enum {
		set[k] = true
	}
	for _, k := range want {
		if !set[string(k)] {
			t.Errorf("kind %q missing from schema enum", k)
		}
	}
}

func TestTelemetryBundle(t *testing.T) {
	off := New(Options{})
	if off.Tracer != nil {
		t.Fatal("tracing must stay off unless requested")
	}
	if off.Registry == nil {
		t.Fatal("registry must always be wired")
	}
	on := New(Options{Trace: true, Sample: 8})
	if on.Tracer == nil || on.Tracer.Sample() != 8 {
		t.Fatalf("traced bundle misconfigured: %+v", on.Tracer)
	}
}

func TestControlEventsCarryVirtualTimeOnly(t *testing.T) {
	tr := NewTracer(1)
	tr.Control(sim.Time(1500), KindRecovery, 2, 9, sim.Time(300), 0)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	want := `{"at":1500,"run":0,"kind":"recovery","pkt":-1,"src":2,"dst":9,"router":-1,"port":-1,"dur":300,"val":0,"mpi":0}`
	if line != want {
		t.Fatalf("serialized event drifted:\n got %s\nwant %s", line, want)
	}
}

// allKinds lists every event kind, for the checks that the schema's enum
// names each of them.
func allKinds() []Kind {
	return []Kind{
		KindInject, KindHop, KindDeliver, KindDrop, KindUnreachable,
		KindSaturation, KindMetapathOpen, KindMetapathClose,
		KindSolDBHit, KindSolDBMiss, KindSolDBSave,
		KindRecovery, KindPathFail, KindWatchdog, KindPredAck,
		KindLinkDown, KindLinkUp, KindLinkDegrade,
	}
}
