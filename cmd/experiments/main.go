// Command experiments regenerates every table and figure of the paper's
// evaluation chapter (thesis ch. 4) plus the background-chapter artifacts
// (Tables 2.1/2.2, Figs 2.10-2.13), writing one text report per experiment.
//
// Usage:
//
//	experiments [-run regex] [-out dir] [-seeds n] [-quick] [-list]
//
// Each report states what the paper shows, what this reproduction
// measures, and the derived comparison (who wins, by what factor).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"prdrb/internal/perf"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

type experiment struct {
	id    string // e.g. "fig4.13"
	title string
	run   func(ctx *runCtx, w io.Writer) error
}

// runCtx carries the harness-wide knobs into each experiment.
type runCtx struct {
	seeds []uint64
	quick bool
	// outDir, when not "-", also receives machine-readable CSV series next
	// to the text reports (for plotting the figures).
	outDir string
}

// writeCSV emits a plot-ready CSV next to the text reports; silently
// skipped when writing to stdout.
func (ctx *runCtx) writeCSV(name string, header []string, rows [][]float64) error {
	if ctx.outDir == "" || ctx.outDir == "-" {
		return nil
	}
	a, err := createArtifact(filepath.Join(ctx.outDir, name+".csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(a, strings.Join(header, ","))
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
		}
		fmt.Fprintln(a, strings.Join(parts, ","))
	}
	return a.Commit()
}

var registry []experiment

func register(id, title string, run func(*runCtx, io.Writer) error) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

func main() {
	runPat := flag.String("run", ".", "regexp selecting experiment ids")
	outDir := flag.String("out", "results", "output directory ('-' = stdout)")
	nSeeds := flag.Int("seeds", 3, "seeds per measurement (multi-seed averaging, thesis §4.3)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	procs := flag.Int("procs", 1, "experiments to run concurrently (each simulation is single-threaded and independent)")
	shards := flag.Int("shards", 1, "engine shards per simulation (>1 selects the conservative-parallel engine; trace-replay experiments always run serial)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	teleOut := flag.String("trace", "", "write a telemetry event trace (JSONL) to this file; a Chrome trace is written next to it (forces serial execution)")
	teleSample := flag.Int("trace-sample", 1, "packet-lifecycle sampling: keep 1 in N packets (control events are never sampled out)")
	manifestOut := flag.String("manifest", "", "write a run manifest (JSON) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	statusAddr := flag.String("status", "", "serve the live status plane (/metrics, /status, /events) on this address")
	statusInterval := flag.Duration("status-interval", 100*time.Microsecond, "virtual-time sampling interval for the status plane")
	perfOut := flag.String("perf", "", "write an engine perf report JSON to this file (forces serial execution; render with 'prdrbtrace perf')")
	perfTrace := flag.String("perf-trace", "", "write a wall-clock Perfetto trace of the engine to this file (forces serial execution)")
	campaignPath := flag.String("campaign", "", "run a campaign: a manifest JSON describing a parameter grid (see EXPERIMENTS.md); completed cells are skipped on re-run")
	campaignDir := flag.String("campaign-dir", "campaigns", "root directory for campaign results (one subdirectory per manifest hash)")
	campaignWorkers := flag.Int("campaign-workers", 4, "concurrent cell simulations in campaign mode")
	flag.Parse()
	wallStart := time.Now()
	installInterruptCleanup()

	sort.SliceStable(registry, func(i, j int) bool { return registry[i].id < registry[j].id })
	if *list {
		for _, e := range registry {
			fmt.Printf("%-12s %s\n", e.id, e.title)
		}
		return
	}
	re, err := regexp.Compile(*runPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
		os.Exit(2)
	}
	if *shards > 1 {
		runner.DefaultShards = *shards
	}
	ctx := &runCtx{seeds: seedList(*nSeeds), quick: *quick, outDir: *outDir}
	if *outDir != "-" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
	var selected []experiment
	for _, e := range registry {
		if re.MatchString(e.id) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; use -list")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		addr, err := telemetry.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: pprof on http://%s/debug/pprof/\n", addr)
	}
	if *cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}
	var tel *telemetry.Telemetry
	if *teleOut != "" || *manifestOut != "" || *statusAddr != "" {
		// -status needs the registry too: /metrics serves its snapshot.
		tel = telemetry.New(telemetry.Options{Trace: *teleOut != "", Sample: *teleSample})
		// Every simulation built anywhere in the registry picks the bundle
		// up from the runner default — no per-experiment plumbing.
		runner.DefaultTelemetry = tel
	}
	var prof *perf.Profiler
	if *perfOut != "" || *perfTrace != "" {
		// One profiler accumulates across every selected experiment run.
		prof = perf.New(perf.Options{Trace: *perfTrace != ""})
		runner.DefaultPerf = prof
	}
	// The live feed is always on: atomic counters the workers fold progress
	// into, read by the status server and the stderr progress line.
	live := &telemetry.LiveStats{}
	runner.DefaultLive = live
	var board *telemetry.Board
	if *statusAddr != "" {
		board = telemetry.NewBoard()
		runner.DefaultStatus = board
		runner.DefaultStatusEvery = sim.Time((*statusInterval).Nanoseconds())
		addr, err := telemetry.ServeStatus(*statusAddr, board, live)
		if err != nil {
			fmt.Fprintf(os.Stderr, "status: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: status on http://%s/status\n", addr)
	}
	if *campaignPath != "" {
		// Campaign mode replaces the experiment registry entirely: the
		// manifest grid is the work list, and the campaign directory is the
		// completion record.
		failed := runCampaign(campaignOpts{
			manifestPath: *campaignPath, dir: *campaignDir,
			workers: *campaignWorkers, shards: *shards, board: board, live: live,
		})
		if failed > 0 {
			os.Exit(1)
		}
		return
	}
	workers := *procs
	if workers < 1 || *outDir == "-" {
		workers = 1 // stdout output must stay ordered
	}
	if tel != nil || prof != nil {
		// The shared tracer's event log, the shared metrics registry and
		// the shared profiler are not concurrency-safe, and a deterministic
		// trace needs a deterministic run-scope order.
		workers = 1
		serialExec = true
	}
	type outcome struct {
		exp     experiment
		err     error
		elapsed float64
	}
	jobs := make(chan experiment)
	results := make(chan outcome)
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			for e := range jobs {
				start := time.Now()
				var w io.Writer = os.Stdout
				var a *artifact
				var err error
				if *outDir != "-" {
					a, err = createArtifact(filepath.Join(*outDir, e.id+".txt"))
					if err != nil {
						results <- outcome{exp: e, err: err}
						continue
					}
					w = a
				}
				fmt.Fprintf(w, "# %s — %s\n\n", e.id, e.title)
				err = e.run(ctx, w)
				if a != nil {
					// Publish even on a failed check — the partial report
					// says what went wrong. It is complete as written.
					if cerr := a.Commit(); err == nil {
						err = cerr
					}
				}
				results <- outcome{exp: e, err: err, elapsed: time.Since(start).Seconds()}
			}
		}()
	}
	go func() {
		for _, e := range selected {
			jobs <- e
		}
		close(jobs)
	}()
	failed := 0
	// Interval state for the live events/sec figure on the progress line.
	lastWall, lastEvents := wallStart, int64(0)
	for done := 1; done <= len(selected); done++ {
		o := <-results
		live.AddRun()
		status := "ok"
		if o.err != nil {
			status = "FAILED: " + o.err.Error()
			failed++
		}
		fmt.Printf("%-12s %-55s %8.2fs  %s\n", o.exp.id, o.exp.title, o.elapsed, status)
		if remaining := len(selected) - done; remaining > 0 {
			eta := time.Since(wallStart) / time.Duration(done) * time.Duration(remaining)
			now, events := time.Now(), live.Events.Load()
			rate := float64(events-lastEvents) / now.Sub(lastWall).Seconds()
			lastWall, lastEvents = now, events
			fmt.Fprintf(os.Stderr, "experiments: %d/%d done (%s), eta ~%s, %.1fM ev/s, vt=%s\n",
				done, len(selected), o.exp.id, eta.Round(time.Second),
				rate/1e6, time.Duration(live.VirtualNs.Load()).Round(time.Microsecond))
		}
	}
	if tel != nil {
		if err := writeTelemetryArtifacts(tel, *teleOut, *manifestOut, ctx.seeds[0], time.Since(wallStart), map[string]any{
			"run": *runPat, "seeds": *nSeeds, "quick": *quick,
			"out": *outDir, "procs": workers,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			failed++
		}
	}
	if prof != nil {
		if err := writePerfArtifacts(prof, *perfOut, *perfTrace); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writePerfArtifacts serializes the shared engine profiler's report and
// Perfetto timeline through the atomic artifact path.
func writePerfArtifacts(prof *perf.Profiler, reportPath, tracePath string) error {
	r := prof.Report()
	if reportPath != "" {
		a, err := createArtifact(reportPath)
		if err != nil {
			return err
		}
		if err := prof.WriteReport(a); err != nil {
			a.Abort()
			return err
		}
		if err := a.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote perf report %s\n", reportPath)
	}
	if tracePath != "" {
		a, err := createArtifact(tracePath)
		if err != nil {
			return err
		}
		if err := prof.WriteTrace(a); err != nil {
			a.Abort()
			return err
		}
		if err := a.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote perf trace %s (%d window spans)\n", tracePath, r.TraceSpans)
	}
	fmt.Fprintf(os.Stderr, "experiments: perf: %d events, %d windows, wall=%.3fms busy=%.3fms idle=%.1f%% imbalance=%.2f\n",
		r.TotalEvents, r.Windows, float64(r.WallNs)/1e6, float64(r.BusyNs)/1e6,
		100*r.IdleFraction, r.ImbalanceRatio)
	return nil
}

// writeTelemetryArtifacts serializes the shared trace (JSONL + Chrome) and
// the run manifest once every experiment has finished. All three files go
// through the atomic artifact path, so an interrupt mid-write leaves
// nothing truncated.
func writeTelemetryArtifacts(tel *telemetry.Telemetry, tracePath, manifestPath string, seed uint64, wall time.Duration, config map[string]any) error {
	var chromePath string
	if tracePath != "" {
		a, err := createArtifact(tracePath)
		if err != nil {
			return err
		}
		if err := tel.Tracer.WriteJSONL(a); err != nil {
			a.Abort()
			return err
		}
		if err := a.Commit(); err != nil {
			return err
		}
		chromePath = telemetry.ChromeTracePath(tracePath)
		b, err := createArtifact(chromePath)
		if err != nil {
			return err
		}
		if err := tel.Tracer.WriteChromeTrace(b); err != nil {
			b.Abort()
			return err
		}
		if err := b.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d events to %s and %s\n", tel.Tracer.Len(), tracePath, chromePath)
	}
	if manifestPath == "" {
		return nil
	}
	m := telemetry.NewManifest("experiments", config)
	m.Seed = seed
	m.WallTimeSec = wall.Seconds()
	m.Metrics = tel.Registry.Snapshot()
	if tracePath != "" {
		m.Trace = &telemetry.TraceInfo{
			File: tracePath, Chrome: chromePath,
			Events: tel.Tracer.Len(), Sample: tel.Tracer.Sample(),
		}
	}
	buf, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	a, err := createArtifact(manifestPath)
	if err != nil {
		return err
	}
	if _, err := a.Write(buf); err != nil {
		a.Abort()
		return err
	}
	if err := a.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote manifest %s\n", manifestPath)
	return nil
}

func seedList(n int) []uint64 {
	out := make([]uint64, n)
	x := uint64(0xC0FFEE)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = z ^ (z >> 31)
	}
	return out
}
