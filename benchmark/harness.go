package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"prdrb"
	"prdrb/internal/runner"
)

// harness runs one workload: a discarded warm-up rep, n timed reps, the
// correctness gate, and the set-up and heap samples.
type harness struct {
	w     *workload
	seed  uint64
	reps  int
	scale float64
	tr    *tracer
	// alternate traces only the odd reps (the traced run compares them with
	// the even, untraced ones).
	alternate bool
	// setupPasses fixes the number of extra set-up passes (-1 = none,
	// 0 = as many as fit setupBudget).
	setupPasses int

	// gc collects garbage between reps (runtime.GC; a test substitutes a
	// recorder). timed is true exactly while a rep's clock is running, so
	// the recorder can prove gc never fires inside a timed region.
	gc    func()
	timed bool
}

// repResult is one executed rep.
type repResult struct {
	cells []cellResult
	wallS float64 // whole-rep wall: every cell's set-up + Execute + Summarize
}

// failure names a correctness check a cell broke.
type failure struct {
	Cell  string `json:"cell"`
	Check string `json:"check"`
}

// runResult is everything a workload run measured.
type runResult struct {
	w        *workload
	in       inputs
	timed    []repResult
	setupS   []float64 // per-cell set-up seconds, one sample per (rep | extra set-up pass)
	heapMB   []float64 // retained heap after each rep, its last Sim still referenced
	digest   string
	failures []failure
	// attempted counts every executed cell: warm-up, timed and twin.
	attempted int
	gc        gcDelta
}

// gcDelta is the collector's activity inside the timed reps (the forced
// between-rep collections are outside and not counted).
type gcDelta struct {
	cycles   uint32
	pauseNs  uint64
	gcCPUS   float64
	totalCPU float64
	mallocs  uint64
}

func (g *gcDelta) add(m0, m1 *runtime.MemStats, c0, c1 cpuSample) {
	g.cycles += m1.NumGC - m0.NumGC
	g.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	g.gcCPUS += c1.gc - c0.gc
	g.totalCPU += c1.total - c0.total
	g.mallocs += m1.Mallocs - m0.Mallocs
}

// benchProcs is the thread budget: one process, at most min(2, nproc) OS
// threads doing work.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// assertDefaultsUnset refuses to measure when any of the eight
// runner.Default* globals is set: every Sim here is built from explicit
// Experiment fields and must not inherit ambient state.
func assertDefaultsUnset() error {
	switch {
	case runner.DefaultTelemetry != nil:
		return fmt.Errorf("runner.DefaultTelemetry is set")
	case runner.DefaultShards != 0:
		return fmt.Errorf("runner.DefaultShards is set")
	case runner.DefaultPerf != nil:
		return fmt.Errorf("runner.DefaultPerf is set")
	case runner.DefaultStatus != nil:
		return fmt.Errorf("runner.DefaultStatus is set")
	case runner.DefaultLive != nil:
		return fmt.Errorf("runner.DefaultLive is set")
	case runner.DefaultStatusEvery != 0:
		return fmt.Errorf("runner.DefaultStatusEvery is set")
	case runner.DefaultCongestion:
		return fmt.Errorf("runner.DefaultCongestion is set")
	case runner.DefaultCongestionWindow != 0:
		return fmt.Errorf("runner.DefaultCongestionWindow is set")
	}
	return nil
}

// runRep executes one rep's cells back to back. Only the last cell keeps
// its Sim (for the retained-heap sample); the rest are released at once.
func (h *harness) runRep(rep int, cells []cellSpec, tr *tracer) repResult {
	out := repResult{cells: make([]cellResult, 0, len(cells))}
	h.timed = true
	t0 := time.Now()
	for i, spec := range cells {
		cr := runCell(spec, fmt.Sprintf("%d/%d", rep, i), tr)
		if i < len(cells)-1 {
			cr.sim = nil
		}
		out.cells = append(out.cells, cr)
	}
	out.wallS = time.Since(t0).Seconds()
	h.timed = false
	return out
}

// run executes the workload. Rep -1 is the warm-up: it runs rep 0's inputs,
// its timings are discarded, and its Results are the reference for the
// same-seed determinism check.
func (h *harness) run() (*runResult, error) {
	if err := assertDefaultsUnset(); err != nil {
		return nil, err
	}
	if h.gc == nil {
		h.gc = runtime.GC
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs()))

	rr := &runResult{w: h.w, in: h.w.generate(h.seed, h.reps, h.scale)}
	warm := h.runRep(-1, rr.in.Reps[0], nil)
	rr.note(warm)
	releaseSims(warm)

	h.gc()
	for i, cells := range rr.in.Reps {
		tr := h.tr
		if h.alternate && i%2 == 0 {
			tr = nil
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := readCPU()
		rep := h.runRep(i, cells, tr)
		cpu1 := readCPU()
		runtime.ReadMemStats(&m1)
		rr.gc.add(&m0, &m1, cpu0, cpu1)
		rr.note(rep)
		rr.timed = append(rr.timed, rep)
		rr.setupS = append(rr.setupS, rep.setupPerCell())

		// Between reps, outside any timed region: sample the retained heap
		// with the rep's last Sim still referenced, then drop it and
		// collect again so the next rep starts from a clean heap.
		h.gc()
		runtime.ReadMemStats(&m1)
		rr.heapMB = append(rr.heapMB, float64(m1.HeapAlloc)/(1<<20))
		runtime.KeepAlive(rep.cells[len(rep.cells)-1].sim)
		releaseSims(rep)
		h.gc()
	}

	rr.checkDeterminism(warm, rr.timed[0])
	rr.checkTwin(rr.timed[0])
	if h.setupPasses >= 0 {
		rr.sampleSetup(h.setupPasses)
	}
	rr.digest = digestOf(rr.timed)
	return rr, nil
}

func releaseSims(rep repResult) {
	for i := range rep.cells {
		rep.cells[i].sim = nil
	}
}

// note records a rep's cells as attempted and collects their failures.
func (rr *runResult) note(rep repResult) {
	for _, c := range rep.cells {
		rr.attempted++
		if c.failure != "" {
			rr.failures = append(rr.failures, failure{c.id, c.failure})
		}
	}
}

// setupPerCell is the rep's mean per-cell set-up time.
func (r repResult) setupPerCell() float64 {
	var s float64
	for _, c := range r.cells {
		s += c.setupS
	}
	return s / float64(len(r.cells))
}

// checkDeterminism compares the warm-up rep against timed rep 0, which ran
// the same inputs in the same process: every Results field must be equal.
func (rr *runResult) checkDeterminism(warm, first repResult) {
	for i := range first.cells {
		if warm.cells[i].failure != "" || first.cells[i].failure != "" {
			continue // already counted
		}
		if warm.cells[i].res != first.cells[i].res || warm.cells[i].spanNs != first.cells[i].spanNs {
			rr.failures = append(rr.failures, failure{first.cells[i].id,
				fmt.Sprintf("determinism: same-seed re-run differs: %+v vs %+v", warm.cells[i].res, first.cells[i].res)})
		}
	}
}

// twinLatencyTol is the serial/sharded agreement required on mean latency.
const twinLatencyTol = 0.01

// checkTwin re-runs rep 0's sharded cells on the serial engine and requires
// the sharded run to have delivered exactly the same packets at a mean
// latency within 1 %.
func (rr *runResult) checkTwin(first repResult) {
	for i, c := range first.cells {
		spec := c.spec
		if spec.Shards <= 1 {
			continue
		}
		spec.Shards = 0
		twin := runCell(spec, c.id+"/twin", nil)
		twin.sim = nil
		rr.attempted++
		if twin.failure != "" {
			rr.failures = append(rr.failures, failure{twin.id, twin.failure})
			continue
		}
		if first.cells[i].failure != "" {
			continue
		}
		if msg := twinMismatch(twin.res, c.res); msg != "" {
			rr.failures = append(rr.failures, failure{c.id, msg})
		}
	}
}

func twinMismatch(serial, sharded prdrb.Results) string {
	if serial.DeliveredPkts != sharded.DeliveredPkts {
		return fmt.Sprintf("twin: sharded delivered %d packets, serial %d", sharded.DeliveredPkts, serial.DeliveredPkts)
	}
	if d := math.Abs(sharded.GlobalLatencyUs-serial.GlobalLatencyUs) / serial.GlobalLatencyUs; d > twinLatencyTol {
		return fmt.Sprintf("twin: sharded mean latency %.4f us vs serial %.4f us (%.2f %% apart)",
			sharded.GlobalLatencyUs, serial.GlobalLatencyUs, 100*d)
	}
	return ""
}

// Bounds on the extra set-up passes: set-up at 64 nodes takes ~0.3 ms and
// does not repeat to a tenth from a handful of samples, so it is sampled
// until setupBudget is spent (at least setupMinPasses, at most
// setupMaxPasses passes over rep 0's cells).
const (
	setupBudget    = 400 * time.Millisecond
	setupMinPasses = 5
	setupMaxPasses = 60
)

// sampleSetup repeats rep 0's set-up alone (build, install, discard) to
// give setup_s enough samples for a steady median.
func (rr *runResult) sampleSetup(fixed int) {
	cells := rr.in.Reps[0]
	start := time.Now()
	for pass := 0; pass < setupMaxPasses; pass++ {
		if fixed > 0 && pass >= fixed {
			break
		}
		if fixed == 0 && pass >= setupMinPasses && time.Since(start) > setupBudget {
			break
		}
		var total float64
		for _, spec := range cells {
			t0 := time.Now()
			if _, err := buildCell(spec, nil, 0); err != nil {
				return // the timed reps already recorded this failure
			}
			total += time.Since(t0).Seconds()
		}
		rr.setupS = append(rr.setupS, total/float64(len(cells)))
	}
}

// digestOf hashes every Results field of every timed cell, plus the
// simulated span (the execution time of application cells). Event counts are left out
// on purpose: a host-speed change may execute fewer events for the same
// traffic and must still show "simulated statistics identical".
func digestOf(reps []repResult) string {
	h := fnv.New64a()
	for _, rep := range reps {
		for _, c := range rep.cells {
			fmt.Fprintf(h, "%s|%+v|%d\n", c.id, c.res, c.spanNs)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// summary of a timing: with n <= 10 no percentile is supported, so only
// median, min and max are reported.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
