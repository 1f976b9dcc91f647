// Command benchmark is the repository's benchmark of record: seven
// workloads, end-to-end host and simulated metrics measured with tracing
// off, and a separate traced run that attributes cost to layers from the
// outside in. See README.md for one command per use.
//
// The driver contract is
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Without -workload every workload runs, each in a fresh process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// smokeScale shrinks every simulated span to about 1/50 for -smoke.
const smokeScale = 0.02

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	smoke     bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, one fresh process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: every input is generated from it")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "run length the rep counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run (per-layer metrics); 0 = the untraced run (end-to-end metrics)")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload and ladder rung at ~1/50 size, in-process, < 3 s")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "two full untraced sets back to back, alternating order; fails when a median moves by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	code, err := dispatch(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func dispatch(o options, out io.Writer) (int, error) {
	switch {
	case o.smoke:
		return runSmoke(o, out)
	case o.selfcheck:
		return runSelfcheck(o, out)
	case o.workload == "":
		return runFullSet(o, out)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return 2, err
	}
	res, err := runOne(w, o, 1, out)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if res.Failed > 0 {
		return 1, fmt.Errorf("%s: failed_share > 0 (%d of %d cells)", w.name, res.Failed, res.Attempted)
	}
	return 0, nil
}

// result is the driver's last-line object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne runs one workload in this process — untraced for the end-to-end
// metrics, or traced for the per-layer metrics — and prints its report.
func runOne(w *workload, o options, scale float64, out io.Writer) (result, error) {
	hdr := newHostHeader(o.seed, o.seconds)
	printHeader(out, hdr)
	if o.trace == 1 {
		return runTraced(w, o, scale, hdr, out)
	}
	h := &harness{w: w, seed: o.seed, reps: w.repCount(o.seconds), scale: scale}
	if scale < 1 {
		h.reps, h.setupPasses = 2, 1 // -smoke: prove the path, not the number
	}
	rr, err := h.run()
	if err != nil {
		return result{}, err
	}
	vals := rr.endToEndValues()
	printEndToEnd(out, rr, vals)
	res := result{Correct: len(rr.failures) == 0, Attempted: rr.attempted, Failed: rr.failedCells(),
		Metrics: map[string]value{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return res, nil
}

func printHeader(out io.Writer, h hostHeader) {
	fmt.Fprintf(out, "# gomaxprocs=%d host_cpus=%d cpu_model=%q go=%s git=%s seed=%d seconds=%d\n",
		h.GOMAXPROCS, h.HostCPUs, h.CPUModel, h.GoVersion, h.GitDescribe, h.Seed, h.Seconds)
}

// printEndToEnd prints every end-to-end metric by name with its unit, the
// failures (which check, which cell) and the sim_digest.
func printEndToEnd(out io.Writer, rr *runResult, vals map[string]float64) {
	name := rr.w.name
	for _, d := range reportedEndToEnd() {
		if !d.appliesTo(name) {
			continue
		}
		fmt.Fprintf(out, "e2e %s %s %v %s %s\n", name, d.Name, vals[d.Name], d.Unit, d.Better)
		if d.Name == "sim_prdrb_gain_pct" {
			fmt.Fprintln(out, "note sim_prdrb_gain_pct: the repo holds no OPNET reference numbers, so the model is unvalidated against the paper's absolute figures and no error figure is given")
		}
	}
	fmt.Fprintf(out, "e2e %s failed_share %v ratio lower\n", name, rr.failedShare())
	for _, t := range rr.timings() {
		fmt.Fprintf(out, "timing %s %s median=%.6g min=%.6g max=%.6g n=%d\n", name, t.name,
			t.s.Median, t.s.Min, t.s.Max, t.s.N)
	}
	for _, f := range rr.failures {
		fmt.Fprintf(out, "FAILED %s cell %s: %s\n", name, f.Cell, f.Check)
	}
	fmt.Fprintf(out, "sim_digest %s %s\n", name, rr.digest)
}

func tracePath() string { return filepath.Join(outDir(), "trace.json") }
