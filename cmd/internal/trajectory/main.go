// Command trajectory compares the benchmark of record across commits in
// pairs mode, from the repository root:
//
//	go run ./cmd/internal/trajectory [-rounds 10] [-seconds 10] [-seed 1] [-workloads a,b] base commit...
//
// It extracts each commit with git archive, builds its ./benchmark once,
// and runs R rounds: in round i, for each workload, every commit runs once
// in a fresh process, the commit order rotated by i. It then prints a
// markdown table per later commit against the first: per workload and
// end-to-end metric each side's median and quartiles, how much worse the
// later commit's median reads, how many of the R pairs it won, every run,
// and whether every run printed the same sim_digest.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// run is one benchmark process's result for one workload.
type run struct {
	metrics map[string]float64
	order   []string // metric names in printed order
	lower   map[string]bool
	digest  string
	failed  int
}

// parseRun reads a benchmark -workload run's stdout: its e2e lines, its
// sim_digest line and the closing JSON line's failed count.
func parseRun(out string) (run, error) {
	r := run{metrics: map[string]float64{}, lower: map[string]bool{}, failed: -1}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 6 && f[0] == "e2e" && f[2] != "failed_share":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return r, fmt.Errorf("e2e %s: %v", f[2], err)
			}
			r.metrics[f[2]], r.lower[f[2]] = v, f[5] == "lower"
			r.order = append(r.order, f[2])
		case len(f) == 3 && f[0] == "sim_digest":
			r.digest = f[2]
		case len(f) > 0 && strings.HasPrefix(f[0], "{"):
			var j struct{ Failed *int }
			if err := json.Unmarshal(sc.Bytes(), &j); err != nil || j.Failed == nil {
				return r, fmt.Errorf("closing line %q: %v", sc.Text(), err)
			}
			r.failed = *j.Failed
		}
	}
	if len(r.order) == 0 || r.digest == "" || r.failed < 0 {
		return r, fmt.Errorf("no e2e metrics, sim_digest or closing JSON line in %q", out)
	}
	return r, nil
}

// quantile is the q-quantile of sorted xs, interpolated between ranks.
func quantile(xs []float64, q float64) float64 {
	h := q * float64(len(xs)-1)
	lo := math.Floor(h)
	if int(lo)+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[int(lo)] + (h-lo)*(xs[int(lo)+1]-xs[int(lo)])
}

// spread prints a median with its quartiles, the median alone below four
// runs.
func spread(xs []float64) (string, float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := quantile(s, 0.5)
	if len(s) < 4 {
		return num(m), m
	}
	return fmt.Sprintf("%s [%s, %s]", num(m), num(quantile(s, 0.25)), num(quantile(s, 0.75))), m
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func list(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = num(x)
	}
	return strings.Join(s, ", ")
}

// summarize writes one table per later commit against base; runs[c][w]
// holds commit c's runs of workload w, round by round.
func summarize(out io.Writer, labels, workloads []string, runs []map[string][]run) {
	for c := 1; c < len(labels); c++ {
		fmt.Fprintf(out, "| workload | metric | %s | %s | worse by | %s better | %s runs | %s runs |\n|---|---|---|---|---|---|---|---|\n",
			labels[0], labels[c], labels[c], labels[0], labels[c])
		for _, w := range workloads {
			base, other := runs[0][w], runs[c][w]
			for _, m := range base[0].order {
				var xs, ys []float64
				wins, ties := 0, 0
				for i := range base {
					x, y := base[i].metrics[m], other[i].metrics[m]
					xs, ys = append(xs, x), append(ys, y)
					switch {
					case x == y:
						ties++
					case (y < x) == base[i].lower[m]:
						wins++
					}
				}
				bs, bm := spread(xs)
				cs, cm := spread(ys)
				worse := (cm - bm) / bm
				if !base[0].lower[m] {
					worse = -worse
				}
				won := fmt.Sprintf("%d/%d", wins, len(xs))
				if ties > 0 {
					won += fmt.Sprintf(" (%d tied)", ties)
				}
				fmt.Fprintf(out, "| %s | %s | %s | %s | %+.1f%% | %s | %s | %s |\n", w, m, bs, cs, 100*worse, won, list(xs), list(ys))
			}
		}
		fmt.Fprintln(out)
	}
	for _, w := range workloads {
		var digests []string
		failed := 0
		for c := range labels {
			for _, r := range runs[c][w] {
				if !slices.Contains(digests, r.digest) {
					digests = append(digests, r.digest)
				}
				failed += r.failed
			}
		}
		same := "the same sim_digest on every run"
		if len(digests) > 1 {
			same = "sim_digest DIFFERS between runs"
		}
		fmt.Fprintf(out, "%s: %s (%s); failed %d.\n", w, same, strings.Join(digests, ", "), failed)
	}
}

// build extracts commit into dir with git archive and builds its
// benchmark there, returning the binary.
func build(dir, commit string) (string, error) {
	src := filepath.Join(dir, commit)
	if err := os.MkdirAll(src, 0o755); err != nil {
		return "", err
	}
	for _, args := range [][]string{
		{"git", "archive", "-o", src + ".tar", commit},
		{"tar", "-xf", src + ".tar", "-C", src},
		{"go", "-C", src, "build", "-o", src + ".bench", "./benchmark"},
	} {
		if out, err := exec.Command(args[0], args[1:]...).CombinedOutput(); err != nil {
			return "", fmt.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	return src + ".bench", nil
}

func main() {
	rounds := flag.Int("rounds", 10, "rounds R; each runs every commit once per workload")
	seconds := flag.Int("seconds", 10, "benchmark -seconds")
	seed := flag.Int("seed", 1, "benchmark -seed")
	wl := flag.String("workloads", "df4096-heavytail-serial", "comma-separated workloads")
	flag.Parse()
	commits := flag.Args()
	if len(commits) < 2 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "usage: trajectory [flags] base commit...")
		os.Exit(2)
	}
	if err := compare(os.Stdout, commits, strings.Split(*wl, ","), *rounds, *seconds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

func compare(out io.Writer, commits, workloads []string, rounds, seconds, seed int) error {
	dir, err := os.MkdirTemp("", "trajectory-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	labels, bins := make([]string, len(commits)), make([]string, len(commits))
	runs := make([]map[string][]run, len(commits))
	for c, commit := range commits {
		sha, err := exec.Command("git", "rev-parse", "--short", commit+"^{commit}").Output()
		if err != nil {
			return fmt.Errorf("%s is not a commit: %v", commit, err)
		}
		labels[c] = "`" + strings.TrimSpace(string(sha)) + "`"
		if bins[c], err = build(dir, strings.TrimSpace(string(sha))); err != nil {
			return err
		}
		runs[c] = map[string][]run{}
	}
	for i := range rounds {
		for _, w := range workloads {
			for k := range commits {
				c := (i + k) % len(commits)
				cmd := exec.Command(bins[c], "-workload", w, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
				cmd.Dir = dir
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("round %d, %s at %s: %v", i+1, w, labels[c], err)
				}
				r, err := parseRun(string(stdout))
				if err != nil {
					return fmt.Errorf("round %d, %s at %s: %v", i+1, w, labels[c], err)
				}
				runs[c][w] = append(runs[c][w], r)
				fmt.Fprintf(os.Stderr, "round %d/%d %s %s: setup_s %s wall_s_per_sim_ms %s\n",
					i+1, rounds, w, labels[c], num(r.metrics["setup_s"]), num(r.metrics["wall_s_per_sim_ms"]))
			}
		}
	}
	fmt.Fprintf(out, "`benchmark -seed %d -seconds %d -trace 0`, %d rounds, commit order rotated each round.\n\n", seed, seconds, rounds)
	summarize(out, labels, workloads, runs)
	return nil
}
