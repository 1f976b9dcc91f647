package main

import (
	"fmt"
	"strings"
	"testing"
)

// canned is a benchmark -workload run's stdout with the given setup_s,
// pkts_per_wall_s and sim_digest.
func canned(setup, pkts float64, digest string) string {
	return fmt.Sprintf(`# gomaxprocs=2 host_cpus=2 seed=1 seconds=10
e2e w setup_s %g s lower
e2e w pkts_per_wall_s %g 1/s higher
e2e w failed_share 0 ratio lower
timing w rep_wall_s median=0.1 min=0.1 max=0.1 n=3
sim_digest w %s
{"correct":true,"attempted":4,"failed":0,"metrics":{}}
`, setup, pkts, digest)
}

func mustParse(t *testing.T, out string) run {
	t.Helper()
	r, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSummarize checks the pairs table on canned runs: medians and
// quartiles per side, the signed "worse by" for a lower-better and a
// higher-better metric, wins with ties counted apart, and the digest line.
func TestSummarize(t *testing.T) {
	base := []run{
		mustParse(t, canned(4, 100, "aa")), mustParse(t, canned(5, 100, "aa")),
		mustParse(t, canned(6, 100, "aa")), mustParse(t, canned(7, 100, "aa")),
	}
	change := []run{
		mustParse(t, canned(2, 90, "aa")), mustParse(t, canned(2.5, 110, "aa")),
		mustParse(t, canned(6, 100, "aa")), mustParse(t, canned(3.5, 120, "aa")),
	}
	var b strings.Builder
	summarize(&b, []string{"p", "c"}, []string{"w"}, []map[string][]run{{"w": base}, {"w": change}})
	for _, want := range []string{
		"| workload | metric | p | c | worse by | c better | p runs | c runs |",
		"| w | setup_s | 5.5 [4.75, 6.25] | 3 [2.375, 4.125] | -45.5% | 3/4 (1 tied) | 4, 5, 6, 7 | 2, 2.5, 6, 3.5 |",
		"| w | pkts_per_wall_s | 100 [100, 100] | 105 [97.5, 112.5] | -5.0% | 2/4 (1 tied) | 100, 100, 100, 100 | 90, 110, 100, 120 |",
		"w: the same sim_digest on every run (aa); failed 0.",
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("summary lacks %q:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), "failed_share") {
		t.Errorf("failed_share is not a compared metric:\n%s", b.String())
	}
	change[2] = mustParse(t, canned(6, 100, "bb"))
	b.Reset()
	summarize(&b, []string{"p", "c"}, []string{"w"}, []map[string][]run{{"w": base[:3]}, {"w": change[:3]}})
	if want := "| w | setup_s | 5 | 2.5 | -50.0% | 2/3 (1 tied) |"; !strings.Contains(b.String(), want) {
		t.Errorf("below four runs the median stands alone; summary lacks %q:\n%s", want, b.String())
	}
	if want := "w: sim_digest DIFFERS between runs (aa, bb); failed 0.\n"; !strings.Contains(b.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, b.String())
	}
}

// TestParseRunRejects: a run without e2e metrics, digest or closing JSON
// line is an error, not an empty sample.
func TestParseRunRejects(t *testing.T) {
	for _, drop := range []string{"e2e", "sim_digest", "{"} {
		var kept []string
		for _, l := range strings.Split(canned(1, 1, "aa"), "\n") {
			if !strings.HasPrefix(l, drop) {
				kept = append(kept, l)
			}
		}
		if _, err := parseRun(strings.Join(kept, "\n")); err == nil {
			t.Errorf("a run without its %q lines parsed", drop)
		}
	}
}
