package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// spawn runs this binary again with the given arguments and returns its
// standard output. Every workload of a full set runs in a fresh process so
// that heap and allocation metrics start from a clean runtime. A test
// substitutes it.
var spawn = func(args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output() // waits for the child to end
}

// childRun is what the parent keeps of one workload's process.
type childRun struct {
	res result
	// e2e holds every "e2e" line of the report: the listed end-to-end
	// metrics plus failed_share and the single-workload sim metrics.
	e2e    map[string]float64
	digest string
}

// runChild runs one workload in a fresh process and parses its report.
func runChild(w *workload, o options, out io.Writer) (childRun, error) {
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace)}
	stdout, err := spawn(args)
	cr := childRun{e2e: map[string]float64{}}
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintln(out, line)
		f := strings.Fields(line)
		switch {
		case len(f) >= 5 && f[0] == "e2e":
			if v, perr := strconv.ParseFloat(f[3], 64); perr == nil {
				cr.e2e[f[2]] = v
			}
		case len(f) == 3 && f[0] == "sim_digest":
			cr.digest = f[2]
		}
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.res); jerr != nil {
		if err == nil {
			err = fmt.Errorf("%s: no result line: %v", w.name, jerr)
		}
		return cr, err
	}
	// A child that ran to its result line but failed the correctness gate
	// exits non-zero; that is reported through res.Failed, not as an error.
	return cr, nil
}

// runFullSet runs every workload, each in a fresh process, and prints a
// one-line verdict per workload after the reports.
func runFullSet(o options, out io.Writer) (int, error) {
	start := time.Now()
	code := 0
	var verdicts []string
	var traces []json.RawMessage
	for _, w := range allWorkloads {
		cr, err := runChild(w, o, out)
		if err != nil {
			return 1, err
		}
		if cr.res.Failed > 0 || !cr.res.Correct {
			code = 1
		}
		verdicts = append(verdicts, fmt.Sprintf("summary %s attempted=%d failed=%d correct=%v",
			w.name, cr.res.Attempted, cr.res.Failed, cr.res.Correct))
		if o.trace == 1 {
			// Each traced child leaves its spans in trace.json; keep them
			// all, one document per workload.
			doc, err := os.ReadFile(tracePath())
			if err != nil {
				return 1, err
			}
			traces = append(traces, doc)
		}
	}
	if o.trace == 1 {
		data, err := json.Marshal(map[string][]json.RawMessage{"runs": traces})
		if err == nil {
			err = os.WriteFile(tracePath(), data, 0o644)
		}
		if err != nil {
			return 1, err
		}
	}
	for _, v := range verdicts {
		fmt.Fprintln(out, v)
	}
	fmt.Fprintf(out, "# full set took %.1f s\n", time.Since(start).Seconds())
	if code != 0 {
		return code, fmt.Errorf("failed_share > 0")
	}
	return 0, nil
}

// runSelfcheck runs two full untraced sets back to back — the second in
// reverse workload order — and compares them: host metrics must agree
// within the metric's bound, and the simulated metrics and sim_digest of
// the two sets (same seed) must be bit-equal.
func runSelfcheck(o options, out io.Writer) (int, error) {
	o.trace = 0
	printHeader(out, newHostHeader(o.seed, o.seconds))
	sets := [2]map[string]childRun{{}, {}}
	for pass := range sets {
		order := append([]*workload(nil), allWorkloads...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cr, err := runChild(w, o, io.Discard)
			if err != nil {
				return 1, err
			}
			if cr.res.Failed > 0 {
				return 1, fmt.Errorf("%s: failed_share > 0 in set %d", w.name, pass+1)
			}
			sets[pass][w.name] = cr
		}
	}
	return compareSets(sets, out)
}

// compareSets prints the selfcheck table (markdown) and returns non-zero
// when any pairing is out of bounds.
func compareSets(sets [2]map[string]childRun, out io.Writer) (int, error) {
	fmt.Fprintln(out, "| workload | metric | unit | set 1 | set 2 | rel. diff | bound | ok |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range allWorkloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, d := range reportedEndToEnd() {
			if !d.appliesTo(w.name) {
				continue
			}
			bound := d.Bound
			if strings.HasPrefix(d.Name, "sim_") {
				bound = 0 // simulated time: the same seed repeats exactly
			}
			va, vb := a.e2e[d.Name], b.e2e[d.Name]
			diff := 0.0
			if va != vb {
				diff = math.Abs(vb-va) / math.Abs(va)
			}
			ok := diff <= bound
			if !ok {
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.6g | %.6g | %.4f | %.2f | %s |\n",
				w.name, d.Name, d.Unit, va, vb, diff, bound, yesNo(ok))
		}
		same := a.digest == b.digest && a.digest != ""
		if !same {
			bad++
		}
		fmt.Fprintf(out, "| %s | sim_digest | hash | %s | %s | - | equal | %s |\n", w.name, a.digest, b.digest, yesNo(same))
	}
	if bad > 0 {
		return 1, fmt.Errorf("selfcheck: %d pairings out of bounds", bad)
	}
	return 0, nil
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// runSmoke runs every workload untraced and traced (ladder and probes
// included) at about 1/50 size in this process. It proves the harness
// builds and emits every metric; its numbers mean nothing.
func runSmoke(o options, out io.Writer) (int, error) {
	failed := 0
	for _, w := range allWorkloads {
		for _, trace := range []int{0, 1} {
			o := o
			o.trace, o.seconds = trace, 1
			res, err := runOne(w, o, smokeScale, out)
			if err != nil {
				return 1, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			failed += res.Failed
		}
	}
	if failed > 0 {
		return 1, fmt.Errorf("smoke: failed_share > 0")
	}
	return 0, nil
}
