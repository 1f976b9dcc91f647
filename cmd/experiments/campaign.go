package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"prdrb"
	"prdrb/cmd/internal/obsflags"
	"prdrb/internal/ckpt"
	"prdrb/internal/telemetry"
)

// Campaign mode turns the experiments harness into a resumable sweep
// service: a manifest JSON describes a parameter grid (topologies x
// policies x patterns x rates x seeds), and the scheduler runs every cell
// through a bounded worker pool. Campaigns are keyed by the manifest's
// content hash: each cell's result JSON is committed atomically when the
// cell finishes, so re-running a killed or interrupted campaign skips
// every completed cell and re-runs only the rest. Resume is cell-granular
// on purpose: a checkpoint is a determinism seal, not a state image, and
// resuming from one replays the cell from t = 0, so a mid-cell checkpoint
// could never save work.

// campaignManifest is the parameter grid, decoded from JSON. Every list
// axis cross-products with the others; scalar fields apply to all cells.
type campaignManifest struct {
	// Topologies are registry specs, e.g. "ft-4-3", "mesh-4x4".
	Topologies []string `json:"topologies"`
	// Policies are routing policy names, e.g. "pr-drb".
	Policies []string `json:"policies"`
	// Patterns are synthetic traffic patterns, e.g. "shuffle".
	Patterns []string `json:"patterns"`
	// RatesMbps are per-node injection rates.
	RatesMbps []float64 `json:"rates_mbps"`
	// Seeds are simulation seeds (one cell per seed).
	Seeds []uint64 `json:"seeds"`
	// Duration is the injection window as a Go duration ("400us").
	Duration string `json:"duration"`
	// Faults optionally applies one fault plan spec to every cell.
	Faults string `json:"faults,omitempty"`
	// Shards selects the engine layout for every cell (0/1 = serial).
	Shards int `json:"shards,omitempty"`
}

// campaignCell is one grid point.
type campaignCell struct {
	Name     string  `json:"cell"`
	Topology string  `json:"topology"`
	Policy   string  `json:"policy"`
	Pattern  string  `json:"pattern"`
	RateMbps float64 `json:"rate_mbps"`
	Seed     uint64  `json:"seed"`
}

// cellResult is the committed per-cell artifact.
type cellResult struct {
	campaignCell
	GlobalLatencyUs float64 `json:"global_latency_us"`
	P99Us           float64 `json:"p99_us"`
	AcceptedRatio   float64 `json:"accepted_ratio"`
	DeliveredPkts   int64   `json:"delivered_pkts"`
	DroppedPkts     int64   `json:"dropped_pkts"`
	Recoveries      int64   `json:"recoveries"`
	Events          uint64  `json:"events"`
	WallSec         float64 `json:"wall_sec"`
}

// campaignOpts carries the harness flags into the scheduler.
type campaignOpts struct {
	manifestPath string
	dir          string
	shards       int
	board        *telemetry.Board
	live         *telemetry.LiveStats
}

// expand cross-products the manifest axes into named cells. Cell names
// are stable — they key the result files — so the order of axes here is
// part of the campaign format.
func (m *campaignManifest) expand() []campaignCell {
	var cells []campaignCell
	for _, topo := range m.Topologies {
		for _, pol := range m.Policies {
			for _, pat := range m.Patterns {
				for _, rate := range m.RatesMbps {
					for _, seed := range m.Seeds {
						cells = append(cells, campaignCell{
							Name:     fmt.Sprintf("%s__%s__%s__%g__s%d", topo, pol, pat, rate, seed),
							Topology: topo, Policy: pol, Pattern: pat,
							RateMbps: rate, Seed: seed,
						})
					}
				}
			}
		}
	}
	return cells
}

// maxCampaignCells bounds a grid, whose cells are expanded up front.
const maxCampaignCells = 1 << 16

// validate checks the manifest and returns its injection window. Every
// axis value becomes a field of its cells' result file names, so values
// are unique per axis, free of path separators, and free of '_', which
// would make the "__" between fields ambiguous.
func (m *campaignManifest) validate() (prdrb.Time, error) {
	if len(m.Topologies) == 0 || len(m.Policies) == 0 || len(m.Patterns) == 0 ||
		len(m.RatesMbps) == 0 || len(m.Seeds) == 0 {
		return 0, fmt.Errorf("campaign manifest needs non-empty topologies, policies, patterns, rates_mbps and seeds")
	}
	var rates, seeds []string
	for _, r := range m.RatesMbps {
		rates = append(rates, fmt.Sprintf("%g", r))
	}
	for _, s := range m.Seeds {
		seeds = append(seeds, fmt.Sprint(s))
	}
	cells := 1
	for _, axis := range []struct {
		name   string
		values []string
	}{{"topologies", m.Topologies}, {"policies", m.Policies}, {"patterns", m.Patterns}, {"rates_mbps", rates}, {"seeds", seeds}} {
		seen := make(map[string]bool, len(axis.values))
		for _, v := range axis.values {
			if seen[v] {
				return 0, fmt.Errorf("campaign manifest lists %s value %q twice", axis.name, v)
			}
			if strings.ContainsAny(v, `/\_`) {
				return 0, fmt.Errorf("campaign manifest %s value %q contains '/', '\\' or '_'", axis.name, v)
			}
			seen[v] = true
		}
		if cells *= len(axis.values); cells > maxCampaignCells {
			return 0, fmt.Errorf("campaign manifest expands to more than %d cells", maxCampaignCells)
		}
	}
	d, err := time.ParseDuration(m.Duration)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("campaign manifest needs a positive duration, got %q", m.Duration)
	}
	return prdrb.Time(d.Nanoseconds()), nil
}

// runCampaign executes the manifest grid on ctx's pool and returns the
// number of failed cells. Completed cells (result JSON present in the
// campaign directory) are skipped.
func runCampaign(ctx *runCtx, opts campaignOpts) int {
	m, duration, key, dir, err := openCampaign(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	cells := m.expand()
	fmt.Printf("campaign %s: %d cells, %d workers, dir %s\n", key, len(cells), ctx.procs, dir)

	// states is the scheduler's live view, folded into the /fleet snapshot:
	// one of queued | running | done | failed | skipped per cell.
	var mu sync.Mutex
	states := make([]string, len(cells))
	setState := func(i int, st string) {
		mu.Lock()
		states[i] = st
		mu.Unlock()
	}
	horizon := int64(duration + prdrb.Second)
	publishFleet := func() {
		f := telemetry.FleetStatus{Campaign: key, Total: len(cells)}
		if opts.live != nil {
			f.EventsProcessed = opts.live.Events.Load()
		}
		mu.Lock()
		for i, st := range states {
			if st == "" {
				st = "queued"
			}
			cell := telemetry.FleetCellStatus{Cell: cells[i].Name, State: st, HorizonNs: horizon}
			switch st {
			case "running":
				f.Running++
			case "failed":
				f.Failed++
			case "done":
				f.Done++
				cell.VirtualNs = horizon
			case "skipped":
				f.Skipped++
				cell.VirtualNs = horizon
			}
			f.Cells = append(f.Cells, cell)
		}
		mu.Unlock()
		sort.Slice(f.Cells, func(i, j int) bool { return f.Cells[i].Cell < f.Cells[j].Cell })
		opts.board.PublishFleet(f)
	}
	if opts.board != nil {
		publishFleet()
		defer publishFleet()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					publishFleet()
				}
			}
		}()
	}

	failed, skipped := 0, 0
	elapsed := make([]float64, len(cells))
	committed := make([]bool, len(cells)) // by an earlier run
	ctx.pool(len(cells), func(i int) error {
		resultPath := filepath.Join(dir, cells[i].Name+".json")
		if _, err := os.Stat(resultPath); err == nil {
			committed[i] = true
			return nil
		}
		setState(i, "running")
		start := time.Now()
		defer func() { elapsed[i] = time.Since(start).Seconds() }()
		res, err := runCampaignCell(cells[i], &m, duration)
		if err != nil {
			return err
		}
		res.WallSec = time.Since(start).Seconds()
		return writeCellResult(resultPath, res)
	}, func(i int, err error) {
		opts.live.AddRun()
		switch {
		case committed[i]:
			skipped++
			setState(i, "skipped")
			fmt.Printf("%-48s skipped (already done)\n", cells[i].Name)
		case err != nil:
			failed++
			setState(i, "failed")
			fmt.Printf("%-48s %8.2fs  FAILED: %v\n", cells[i].Name, elapsed[i], err)
		default:
			setState(i, "done")
			fmt.Printf("%-48s %8.2fs  done\n", cells[i].Name, elapsed[i])
		}
	})
	fmt.Printf("campaign %s: %d done, %d skipped, %d failed\n",
		key, len(cells)-failed-skipped, skipped, failed)
	return failed
}

// openCampaign reads and validates the manifest and prepares its
// directory, keyed by the manifest's content hash: the same grid always
// lands in the same directory, so a re-run sees its own prior results.
func openCampaign(opts campaignOpts) (m campaignManifest, duration prdrb.Time, key, dir string, err error) {
	raw, err := os.ReadFile(opts.manifestPath)
	if err != nil {
		return m, 0, "", "", err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, 0, "", "", fmt.Errorf("%s: %v", opts.manifestPath, err)
	}
	if duration, err = m.validate(); err != nil {
		return m, 0, "", "", err
	}
	if opts.shards > 1 && m.Shards == 0 {
		m.Shards = opts.shards
	}
	key = fmt.Sprintf("%016x", ckpt.DigestStrings(string(raw)))
	dir = filepath.Join(opts.dir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, 0, "", "", err
	}
	// Sweep temp files a killed run left behind: every committed artifact
	// was renamed into place, so anything still named .tmp* is an abandoned
	// partial write.
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp*")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	// Keep a copy of the manifest next to the results for provenance.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		obsflags.WriteArtifactBytes(filepath.Join(dir, "manifest.json"), raw)
	}
	return m, duration, key, dir, nil
}

// runCampaignCell executes one grid point to its horizon.
func runCampaignCell(c campaignCell, m *campaignManifest, duration prdrb.Time) (cellResult, error) {
	topo, err := prdrb.TopologyByName(c.Topology)
	if err != nil {
		return cellResult{}, err
	}
	o, err := prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: topo, Policy: prdrb.Policy(c.Policy), Seed: c.Seed, Shards: m.Shards},
		Faults:     m.Faults,
		Pattern:    &prdrb.PatternSpec{Pattern: c.Pattern, RateMbps: c.RateMbps, Start: 0, End: duration},
		Drain:      prdrb.Second,
	}.Run()
	if err != nil {
		return cellResult{}, err
	}
	r := o.Res
	return cellResult{
		campaignCell:    c,
		GlobalLatencyUs: r.GlobalLatencyUs,
		P99Us:           r.P99Us,
		AcceptedRatio:   r.AcceptedRatio,
		DeliveredPkts:   r.DeliveredPkts,
		DroppedPkts:     r.DroppedPkts,
		Recoveries:      r.Recoveries,
		Events:          o.Sim.Processed(),
	}, nil
}

// writeCellResult commits the per-cell JSON through the atomic artifact
// path: a SIGINT mid-write leaves no half-written result, so a restarted
// campaign only ever skips genuinely complete cells.
func writeCellResult(path string, res cellResult) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return obsflags.WriteArtifactBytes(path, append(buf, '\n'))
}
