package telemetry

import (
	"strings"
	"testing"
)

// TestExpositionGolden pins the exposition byte-for-byte: name
// sanitization, HELP escaping, sorted ordering, histogram bucket /
// sum / count shape.
func TestExpositionGolden(t *testing.T) {
	scalars := map[string]int64{
		"engine.events_processed": 42,
		"net.dropped_pkts":        0,
		"weird name\nwith\\stuff": -7,
	}
	hists := map[string]HistSnapshot{
		"latency.e2e_ns": {
			Bounds: []float64{100, 1000, 100000},
			Counts: []int64{3, 10, 11},
			Count:  12,
			Sum:    345678.5,
		},
	}
	var sb strings.Builder
	if err := WriteExposition(&sb, scalars, hists); err != nil {
		t.Fatal(err)
	}
	want := `# HELP prdrb_engine_events_processed prdrb metric engine.events_processed
# TYPE prdrb_engine_events_processed gauge
prdrb_engine_events_processed 42
# HELP prdrb_net_dropped_pkts prdrb metric net.dropped_pkts
# TYPE prdrb_net_dropped_pkts gauge
prdrb_net_dropped_pkts 0
# HELP prdrb_weird_name_with_stuff prdrb metric weird name\nwith\\stuff
# TYPE prdrb_weird_name_with_stuff gauge
prdrb_weird_name_with_stuff -7
# HELP prdrb_latency_e2e_ns prdrb histogram latency.e2e_ns
# TYPE prdrb_latency_e2e_ns histogram
prdrb_latency_e2e_ns_bucket{le="100"} 3
prdrb_latency_e2e_ns_bucket{le="1000"} 10
prdrb_latency_e2e_ns_bucket{le="100000"} 11
prdrb_latency_e2e_ns_bucket{le="+Inf"} 12
prdrb_latency_e2e_ns_sum 345678.5
prdrb_latency_e2e_ns_count 12
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The golden must itself validate.
	n, err := ValidateExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("golden failed validation: %v", err)
	}
	if n != 9 {
		t.Errorf("validator counted %d samples, want 9", n)
	}
}

// TestExpositionDeterministic re-renders the same state and requires
// byte-identical output (map iteration order must not leak).
func TestExpositionDeterministic(t *testing.T) {
	scalars := map[string]int64{"b": 2, "a": 1, "c": 3, "zz.x": 9, "m.n": 4}
	hists := map[string]HistSnapshot{
		"h2": {Bounds: []float64{1}, Counts: []int64{1}, Count: 1, Sum: 1},
		"h1": {Bounds: []float64{2}, Counts: []int64{2}, Count: 2, Sum: 4},
	}
	var first string
	for i := 0; i < 8; i++ {
		var sb strings.Builder
		if err := WriteExposition(&sb, scalars, hists); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

// TestValidateExpositionRejects feeds structurally broken expositions and
// requires the validator to catch each.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"illegal name", "9bad_name 1\n"},
		{"no value", "prdrb_x\n"},
		{"bad value", "prdrb_x notanumber\n"},
		{"non-cumulative buckets", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_count 5
`},
		{"buckets out of order", `# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 2
h_count 2
`},
		{"missing +Inf", `# TYPE h histogram
h_bucket{le="1"} 1
h_count 1
`},
		{"inf != count", `# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 1
h_count 2
`},
		{"bucket without le", `# TYPE h histogram
h_bucket{vc="3"} 1
h_count 1
`},
	}
	for _, tc := range cases {
		if _, err := ValidateExposition(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: validator accepted broken input", tc.name)
		}
	}
}

// TestValidateExpositionAccepts checks benign variations parse: labels,
// timestamps, comments, +Inf spellings.
func TestValidateExpositionAccepts(t *testing.T) {
	in := `# some comment
# HELP m helps
# TYPE m gauge
m{a="x",b="y \"quoted\""} 1.5 1700000000
m_plain 2
# TYPE h histogram
h_bucket{le="0.5"} 0
h_bucket{le="+Inf"} 4
h_sum 12.5
h_count 4
`
	n, err := ValidateExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("validator rejected benign input: %v", err)
	}
	if n != 6 {
		t.Errorf("counted %d samples, want 6", n)
	}
}

// TestRegistryHistograms covers the registry's histogram reader plumbing.
func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", func() HistSnapshot {
		return HistSnapshot{Bounds: []float64{10}, Counts: []int64{2}, Count: 2, Sum: 11}
	})
	hs := r.SnapshotHistograms()
	if hs["h"].Count != 2 || hs["h"].Sum != 11 {
		t.Errorf("SnapshotHistograms[h] = %+v", hs["h"])
	}
}
