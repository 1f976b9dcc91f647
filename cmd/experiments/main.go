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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"prdrb"
	"prdrb/cmd/internal/obsflags"
	"prdrb/internal/telemetry"
)

type experiment struct {
	id    string // e.g. "fig4.13"
	title string
	run   runFunc
}

// runFunc writes one experiment's report.
type runFunc func(ctx *runCtx, w io.Writer) error

// runCtx carries the harness-wide knobs into each experiment.
type runCtx struct {
	seeds []uint64
	quick bool
	// outDir, when not "-", also receives machine-readable CSV series next
	// to the text reports (for plotting the figures).
	outDir string
	// procs bounds every worker pool: experiments, campaign cells and the
	// runs inside one experiment.
	procs int
}

// writeCSV emits a plot-ready CSV next to the text reports; silently
// skipped when writing to stdout.
func (ctx *runCtx) writeCSV(name string, header []string, rows [][]float64) error {
	if ctx.outDir == "" || ctx.outDir == "-" {
		return nil
	}
	return obsflags.WriteArtifact(filepath.Join(ctx.outDir, name+".csv"), func(w io.Writer) error {
		fmt.Fprintln(w, strings.Join(header, ","))
		for _, row := range rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
			}
			fmt.Fprintln(w, strings.Join(parts, ","))
		}
		return nil
	})
}

var registry []experiment

func register(id, title string, run runFunc) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command on args; it returns the exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	runPat := fs.String("run", ".", "regexp selecting experiment ids")
	outDir := fs.String("out", "results", "output directory ('-' = stdout)")
	nSeeds := fs.Int("seeds", 3, "seeds per measurement (multi-seed averaging, thesis §4.3)")
	quick := fs.Bool("quick", false, "shrink workloads for a fast smoke run")
	procs := fs.Int("procs", runtime.NumCPU(), "simulations to run concurrently: experiments, their runs, campaign cells (each is single-threaded and independent)")
	shards := fs.Int("shards", 1, "engine shards per simulation (>1 selects the conservative-parallel engine; trace-replay experiments always run serial)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	obs := obsflags.Register(fs, "experiments")
	campaignPath := fs.String("campaign", "", "run a campaign: a manifest JSON describing a parameter grid (see EXPERIMENTS.md); completed cells are skipped on re-run")
	campaignDir := fs.String("campaign-dir", "campaigns", "root directory for campaign results (one subdirectory per manifest hash)")
	fs.Parse(args)

	sort.SliceStable(registry, func(i, j int) bool { return registry[i].id < registry[j].id })
	if *list {
		for _, e := range registry {
			fmt.Printf("%-12s %s\n", e.id, e.title)
		}
		return 0
	}
	if *nSeeds < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -seeds %d, want at least 1\n", *nSeeds)
		return 2
	}
	re, err := regexp.Compile(*runPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
		return 2
	}
	obsflags.DefaultShards(*shards)
	ctx := &runCtx{seeds: seedList(*nSeeds), quick: *quick, outDir: *outDir, procs: max(*procs, 1)}
	if *outDir != "-" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
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
		return 2
	}
	if err := obs.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	if shared := obs.SharedRecorder(); shared != "" {
		// The shared tracer's event log, the shared metrics registry and
		// the shared profiler are not concurrency-safe, and a deterministic
		// trace needs a deterministic run-scope order: experiments and
		// campaign cells alike run one simulation at a time.
		if *procs > 1 {
			fmt.Fprintf(os.Stderr, "experiments: %s forces serial execution; ignoring -procs %d\n", shared, *procs)
		}
		ctx.procs = 1
	}
	if *campaignPath != "" {
		// Campaign mode replaces the experiment registry entirely: the
		// manifest grid is the work list, and the campaign directory is the
		// completion record.
		return min(runCampaign(ctx, campaignOpts{
			manifestPath: *campaignPath, dir: *campaignDir,
			shards: *shards, board: obs.Board, live: obs.Live,
		}), 1)
	}
	if *outDir == "-" {
		ctx.procs = 1 // stdout output must stay ordered
	}
	failed := runExperiments(ctx, selected, obs.Live)
	if err := obs.Finish(ctx.seeds[0], map[string]any{
		"run": *runPat, "seeds": *nSeeds, "quick": *quick,
		"out": *outDir, "procs": ctx.procs,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		failed++
	}
	return min(failed, 1)
}

// runExperiments runs the selected experiments on the pool, writing each
// report to ctx.outDir (or stdout) and one status line per experiment as it
// finishes, and returns how many failed.
func runExperiments(ctx *runCtx, selected []experiment, live *telemetry.LiveStats) int {
	wallStart := time.Now()
	elapsed := make([]float64, len(selected))
	failed, done := 0, 0
	// Interval state for the live events/sec figure on the progress line.
	lastWall, lastEvents := wallStart, int64(0)
	ctx.pool(len(selected), func(i int) error {
		start := time.Now()
		defer func() { elapsed[i] = time.Since(start).Seconds() }()
		return runExperiment(ctx, selected[i])
	}, func(i int, err error) {
		done++
		e := selected[i]
		live.AddRun()
		status := "ok"
		if err != nil {
			status = "FAILED: " + err.Error()
			failed++
		}
		fmt.Printf("%-12s %-55s %8.2fs  %s\n", e.id, e.title, elapsed[i], status)
		if remaining := len(selected) - done; remaining > 0 {
			eta := time.Since(wallStart) / time.Duration(done) * time.Duration(remaining)
			now, events := time.Now(), live.Events.Load()
			rate := float64(events-lastEvents) / now.Sub(lastWall).Seconds()
			lastWall, lastEvents = now, events
			fmt.Fprintf(os.Stderr, "experiments: %d/%d done (%s), eta ~%s, %.1fM ev/s, vt=%s\n",
				done, len(selected), e.id, eta.Round(time.Second),
				rate/1e6, time.Duration(live.VirtualNs.Load()).Round(time.Microsecond))
		}
	})
	return failed
}

// runExperiment writes one experiment's report. The report is published
// even when the experiment fails: the partial report says what went wrong.
func runExperiment(ctx *runCtx, e experiment) (err error) {
	var w io.Writer = os.Stdout
	if ctx.outDir != "-" {
		a, err := obsflags.CreateArtifact(filepath.Join(ctx.outDir, e.id+".txt"))
		if err != nil {
			return err
		}
		defer func() {
			if cerr := a.Commit(); err == nil {
				err = cerr
			}
		}()
		w = a
	}
	fmt.Fprintf(w, "# %s — %s\n\n", e.id, e.title)
	return e.run(ctx, w)
}

// seedList derives the harness's n seeds.
func seedList(n int) []uint64 { return prdrb.Seeds(n, 0xC0FFEE) }

// pick returns full, or small under -quick.
func (ctx *runCtx) pick(full, small int) int {
	if ctx.quick {
		return small
	}
	return full
}
