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

	"prdrb/cmd/internal/obsflags"
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
	obs := obsflags.Register(flag.CommandLine, "experiments")
	campaignPath := flag.String("campaign", "", "run a campaign: a manifest JSON describing a parameter grid (see EXPERIMENTS.md); completed cells are skipped on re-run")
	campaignDir := flag.String("campaign-dir", "campaigns", "root directory for campaign results (one subdirectory per manifest hash)")
	campaignWorkers := flag.Int("campaign-workers", 4, "concurrent cell simulations in campaign mode")
	flag.Parse()
	wallStart := time.Now()

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
	obsflags.DefaultShards(*shards)
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
	if err := obs.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	live := obs.Live
	if *campaignPath != "" {
		// Campaign mode replaces the experiment registry entirely: the
		// manifest grid is the work list, and the campaign directory is the
		// completion record.
		failed := runCampaign(campaignOpts{
			manifestPath: *campaignPath, dir: *campaignDir,
			workers: *campaignWorkers, shards: *shards, board: obs.Board, live: live,
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
	if shared := obs.SharedRecorder(); shared != "" {
		// The shared tracer's event log, the shared metrics registry and
		// the shared profiler are not concurrency-safe, and a deterministic
		// trace needs a deterministic run-scope order.
		if *procs > 1 {
			fmt.Fprintf(os.Stderr, "experiments: %s forces serial execution; ignoring -procs %d\n", shared, *procs)
		}
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
				var a *obsflags.Artifact
				var err error
				if *outDir != "-" {
					a, err = obsflags.CreateArtifact(filepath.Join(*outDir, e.id+".txt"))
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
	if err := obs.Finish(ctx.seeds[0], map[string]any{
		"run": *runPat, "seeds": *nSeeds, "quick": *quick,
		"out": *outDir, "procs": workers,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
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
