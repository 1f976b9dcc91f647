package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

func sim(args ...string) string   { return tool("./cmd/prdrbsim", args...) }
func trace(args ...string) string { return tool("./cmd/prdrbtrace", args...) }

// ft43 is the ft-4-3 pr-drb shuffle run most smokes share, plus extra.
func ft43(rate, dur string, extra ...string) []string {
	return append([]string{"-topology", "ft-4-3", "-policy", "pr-drb", "-pattern", "shuffle", "-rate", rate, "-duration", dur}, extra...)
}

func telemetrySmoke() float64 {
	sim("-topology", "mesh-4x4", "-policy", "pr-drb", "-pattern", "uniform", "-rate", "200", "-duration", "400us", "-trace", tmp("run.jsonl"), "-manifest", tmp("run-manifest.json"))
	trace("validate", "-trace", tmp("run.jsonl"), "-manifest", tmp("run-manifest.json"))
	return 0
}

var pkts = regexp.MustCompile(`pkts=(\d+)`)

func parallelSmoke() float64 {
	serial := pkts.FindStringSubmatch(sim(ft43("400", "400us", "-shards", "1")...))
	sharded := pkts.FindStringSubmatch(sim(ft43("400", "400us", "-shards", "4", "-trace", tmp("par.jsonl"))...))
	trace("validate", "-trace", tmp("par.jsonl"))
	expect(serial != nil && sharded != nil && serial[1] == sharded[1], "sharded run delivered %v pkts, serial %v", sharded, serial)
	fmt.Printf("    shards=4 delivered %s pkts == serial\n", serial[1])
	return 0
}

func datacenterSmoke() float64 {
	out := sim("-topology", "df-16-32-8-8", "-policy", "pr-drb", "-heavytail", "cache", "-ht-pattern", "grouplocal",
		"-ht-plocal", "0.7", "-rate", "100", "-duration", "50us", "-shards", "4", "-bursts", "0")
	expect(strings.Contains(out, "accepted=1.000"), "4096-node dragonfly run lost traffic: %s", out)
	fmt.Print("    ", out)
	return 0
}

func collectivesSmoke() float64 {
	goal := []string{"-topology", "ft-4-3", "-policy", "pr-drb", "-goal", tmp("step.goal"), "-shards"}
	sim("-topology", "ft-4-3", "-policy", "pr-drb", "-workload", "ai-dp-allreduce", "-iters", "2", "-save-goal", tmp("step.goal"))
	s1, s4 := sim(append(goal, "1")...), sim(append(goal, "4")...)
	expect(s1 == s4 && strings.Contains(s1, "exec="), "GOAL replay summaries differ across -shards or lack exec=:\n%s%s", s1, s4)
	return 0
}

func observabilitySmoke() float64 {
	stderr := must(os.Create(tmp("obs.err")))
	defer stderr.Close()
	c := exec.Command(bin("./cmd/prdrbsim"), ft43("600", "300us", "-shards", "2", "-status", "127.0.0.1:0", "-status-linger", "60s", "-trace", tmp("obs.jsonl"), "-manifest", tmp("obs-manifest.json"))...)
	c.Stderr = stderr
	must(0, c.Start())
	defer c.Wait()
	defer c.Process.Kill()
	// The run writes its artifacts before lingering, so once the manifest
	// line is out the board holds the final snapshot.
	var log []byte
	for start := time.Now(); !bytes.Contains(log, []byte("wrote manifest")); time.Sleep(100 * time.Millisecond) {
		expect(time.Since(start) < 30*time.Second, "observability run never finished:\n%s", log)
		log, _ = os.ReadFile(tmp("obs.err"))
	}
	addr := regexp.MustCompile(`status on http://([^/]+)/status`).FindSubmatch(log)
	expect(addr != nil, "no status address in stderr:\n%s", log)
	scrape := func(path string) []byte {
		resp := must((&http.Client{Timeout: 10 * time.Second}).Get("http://" + string(addr[1]) + path))
		defer resp.Body.Close()
		expect(resp.StatusCode == http.StatusOK, "%s: %s", path, resp.Status)
		return must(io.ReadAll(resp.Body))
	}
	must(0, os.WriteFile(tmp("obs-metrics.txt"), scrape("/metrics"), 0o644))
	trace("metrics-validate", tmp("obs-metrics.txt"))
	status := scrape("/status")
	expect(bytes.Contains(status, []byte(`"window_end_ns"`)) && bytes.Contains(status, []byte(`"delivered_pkts"`)), "/status lacks window positions or totals: %s", status)
	// One publish per 100us sampling interval plus the closing snapshot, not
	// one per window barrier. The closing snapshot carries the parked horizon
	// clock (load end + 1s), so the bound that bites is the last event's time.
	var st struct {
		Seq       int64
		VirtualNs int64 `json:"virtual_ns"`
	}
	var last struct{ At int64 }
	events := bytes.TrimSpace(must(os.ReadFile(tmp("obs.jsonl"))))
	must(0, json.Unmarshal(status, &st))
	must(0, json.Unmarshal(events[bytes.LastIndexByte(events, '\n')+1:], &last))
	expect(st.Seq >= 2 && st.Seq <= st.VirtualNs/100000+2 && st.Seq <= last.At/100000+2,
		"/status seq=%d, virtual_ns=%d, last event at %dns: want 2 <= seq <= t/100000 + 2 for both (publishing per barrier again?)", st.Seq, st.VirtualNs, last.At)
	trace("validate", "-trace", tmp("obs.jsonl"), "-manifest", tmp("obs-manifest.json"))
	report := trace("report", "-trace", tmp("obs.jsonl"), "-manifest", tmp("obs-manifest.json"), "-heatmap-dir", tmp("obs-heat"))
	expect(strings.Contains(report, "## causal decision summary"), "report lacks the causal decision summary")
	return 0
}

func perfSmoke() float64 {
	off := sim(ft43("400", "400us", "-shards", "4")...)
	on := sim(ft43("400", "400us", "-shards", "4", "-perf", tmp("perf-a.json"), "-perf-trace", tmp("perf.trace.json"))...)
	expect(on == off, "-perf changed the run summary:\noff: %son:  %s", off, on)
	sim(ft43("400", "400us", "-shards", "4", "-perf", tmp("perf-b.json"))...)
	detA := trace("perf", "-report", tmp("perf-a.json"), "-det", "-trace", tmp("perf.trace.json"))
	detB := trace("perf", "-report", tmp("perf-b.json"), "-det")
	// Only run A wrote a Perfetto trace: its validation line is not compared.
	expect(regexp.MustCompile(`(?m)^perf trace: .* ok`).MatchString(detA), "Perfetto perf trace failed validation:\n%s", detA)
	stripped := regexp.MustCompile(`(?m)^perf trace: .*\n`).ReplaceAllString(detA, "")
	expect(stripped == detB, "deterministic perf counters differ across identical-seed runs:\n%s---\n%s", stripped, detB)
	num := func(re string) int {
		m := regexp.MustCompile(re).FindStringSubmatch(detB)
		expect(m != nil, "no %s in:\n%s", re, detB)
		return must(strconv.Atoi(m[1]))
	}
	windows, inline, released := num(`(?m)^windows=(\d+) `), num(`(?m)^inline_windows=(\d+) `), num(`(?m)^inline_windows=.* released_windows=(\d+) `)
	expect(inline+released == windows, "window modes do not add up: windows=%d inline=%d released=%d", windows, inline, released)
	fmt.Printf("    -perf changes nothing; det counters stable (%d inline + %d released windows)\n", inline, released)
	return 0
}

func congestionSmoke() float64 {
	cong := func(extra ...string) {
		sim(append([]string{"-topology", "ft-4-3", "-policy", "pr-drb", "-heavytail", "websearch", "-ht-maxflow", "65536",
			"-rate", "300", "-duration", "300us", "-shards", "2"}, extra...)...)
	}
	cong("-congestion-out", tmp("cong-a.json"), "-flight", tmp("flight-a.jsonl"))
	cong("-congestion-out", tmp("cong-b.json"))
	expect(bytes.Equal(must(os.ReadFile(tmp("cong-a.json"))), must(os.ReadFile(tmp("cong-b.json")))), "congestion artifacts differ across identical-seed runs")
	report := trace("congestion", "-artifact", tmp("cong-a.json"), "-csv-dir", tmp("cong-csv"))
	expect(strings.Contains(report, "latency attribution"), "congestion report lacks latency attribution")
	expect(regexp.MustCompile(`(?m)^end_us,`).Match(must(os.ReadFile(tmp("cong-csv/class_timeline.csv")))), "congestion report wrote no class timeline CSV")
	if fi, err := os.Stat(tmp("flight-a.jsonl")); err == nil && fi.Size() > 0 {
		trace("flight-validate", tmp("flight-a.jsonl"))
	}
	// The 4096-node dragonfly: every link class, and a window close that
	// folds ~20k links in place.
	df := func(out string) {
		sim("-topology", "df-16-32-8-8", "-policy", "pr-drb", "-heavytail", "cache", "-ht-pattern", "grouplocal",
			"-ht-plocal", "0.7", "-rate", "100", "-duration", "50us", "-shards", "2", "-bursts", "0", "-congestion-out", tmp(out))
	}
	df("cong-df-a.json")
	df("cong-df-b.json")
	expect(bytes.Equal(must(os.ReadFile(tmp("cong-df-a.json"))), must(os.ReadFile(tmp("cong-df-b.json")))), "4096-node congestion artifacts differ across identical-seed runs")
	return 0
}
