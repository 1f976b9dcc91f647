package main

import (
	"encoding/json"
	"fmt"

	"prdrb"
	"prdrb/internal/stats"
)

// cellSpec is one generated input: everything the simulator is told about a
// cell. The harness derives every cellSpec from (workload, seed) alone and
// the program under test sees nothing else — no workload name, no harness
// seed — so it cannot special-case the benchmark.
type cellSpec struct {
	Topology string `json:"topology"` // registry spec, e.g. "ft-4-3"
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards,omitempty"`

	// Exactly one traffic source is set.
	Pattern   *prdrb.PatternSpec   `json:"pattern,omitempty"`
	Bursts    *prdrb.BurstSpec     `json:"bursts,omitempty"`
	HeavyTail *prdrb.HeavyTailSpec `json:"heavytail,omitempty"`
	App       *appSpec             `json:"app,omitempty"`
}

// appSpec names an application trace to generate and replay (closed loop).
// TraceTuned selects the trace-tuned DRB-family configuration.
type appSpec struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	TraceTuned bool   `json:"trace_tuned"`
}

// role tells the metric code how a cell of a rep is used.
type role uint8

const (
	// roleMeasured cells contribute to every metric.
	roleMeasured role = iota
	// roleBaseline cells (the drb half of a drb/pr-drb pair) contribute to
	// host-time metrics and the gain, but not to sim_latency_*.
	roleBaseline
)

// workload is one benchmark workload: a generator of per-rep cell lists.
type workload struct {
	name string
	why  string
	// reps is the number of timed reps at the reference run length
	// (refSeconds); the harness scales it with -seconds.
	reps int
	// cells generates one rep's inputs from the rep seed. scale in (0,1]
	// shrinks the simulated span for -smoke. Cells with Shards > 1 get the
	// serial/sharded twin check.
	cells func(seed uint64, scale float64) []cellSpec
	// roles parallels the cell list (nil = all measured).
	roles []role
	// ladder is the single-cell spec the layer ladder replays at this
	// workload's shape.
	ladder func(seed uint64, scale float64) cellSpec
}

// refSeconds is the -seconds value the rep counts below were sized for.
const refSeconds = 10

const (
	us = int64(prdrb.Microsecond)
	ms = int64(prdrb.Millisecond)
)

func scaled(t int64, scale float64) prdrb.Time {
	v := prdrb.Time(float64(t) * scale)
	if v < prdrb.Time(10*us) {
		v = prdrb.Time(10 * us)
	}
	return v
}

func uniformCell(seed uint64, scale float64, shards int) cellSpec {
	return cellSpec{
		Topology: "ft-4-3", Policy: "adaptive", Seed: seed, Shards: shards,
		Pattern: &prdrb.PatternSpec{Pattern: "uniform", RateMbps: 800, End: scaled(20*ms, scale)},
	}
}

// uniformLadder is the ladder cell of the ft64 workloads without a
// synthetic DRB-family cell of their own: the uniform cell at a fifth of its
// window. Rungs r5-r7 run pr-drb, which on saturated uniform traffic costs
// ~25x the adaptive rungs per packet, so the full window does not fit a run.
func uniformLadder(seed uint64, scale float64) cellSpec { return uniformCell(seed, 0.2*scale, 0) }

func burstCell(seed uint64, scale float64, policy string) cellSpec {
	count := int(40 * scale)
	if count < 2 {
		count = 2
	}
	return cellSpec{
		Topology: "ft-4-3", Policy: policy, Seed: seed,
		Bursts: &prdrb.BurstSpec{
			Pattern: "shuffle", RateMbps: 600,
			Len: prdrb.Time(250 * us), Gap: prdrb.Time(300 * us), Count: count,
		},
	}
}

func heavyTailCell(seed uint64, scale float64, shards int) cellSpec {
	return cellSpec{
		Topology: "df-16-32-8-8", Policy: "pr-drb", Seed: seed, Shards: shards,
		HeavyTail: &prdrb.HeavyTailSpec{
			CDF: "cache", Pattern: "grouplocal", PLocal: 0.7, LoadMbps: 100,
			OnMean: prdrb.Time(50 * us), End: scaled(200*us, scale),
		},
	}
}

var appNames = []string{"lammps-chain", "pop", "nas-mg-a", "sweep3d", "nas-lu"}

var (
	gridTopologies = []string{"mesh-8x8", "torus-8x8", "ft-4-3", "df-4-8-2-2"}
	gridPatterns   = []string{"uniform", "shuffle", "bitreversal", "transpose"}
)

// allWorkloads lists the seven workloads in their canonical order. Rep sizes
// were measured on the 2-vCPU reference host; see README.md.
var allWorkloads = []*workload{
	{
		name: "ft64-uniform-serial",
		why:  "steady-state hot path only: heap scheduler, port pump, adaptive routing, metrics observers; no controllers, ACKs or GC",
		reps: 32,
		cells: func(seed uint64, scale float64) []cellSpec {
			return []cellSpec{uniformCell(seed, scale, 0)}
		},
		ladder: uniformLadder,
	},
	{
		name: "ft64-uniform-shards2",
		why:  "same traffic on the windowed wheel with 2 shards: per-window barrier cost dominates, must not move the serial twin",
		reps: 17,
		cells: func(seed uint64, scale float64) []cellSpec {
			return []cellSpec{uniformCell(seed, scale, 2)}
		},
		ladder: uniformLadder,
	},
	{
		name: "ft64-bursts-drbfamily",
		why:  "the paper's headline scenario: repeated shuffle bursts under drb then pr-drb; ACKs, metapaths, SolDB and PathCache carry the cost",
		reps: 22,
		cells: func(seed uint64, scale float64) []cellSpec {
			return []cellSpec{burstCell(seed, scale, "drb"), burstCell(seed, scale, "pr-drb")}
		},
		roles:  []role{roleBaseline, roleMeasured},
		ladder: func(seed uint64, scale float64) cellSpec { return burstCell(seed, scale, "pr-drb") },
	},
	{
		name: "df4096-heavytail-serial",
		why:  "4096-node dragonfly, pr-drb, heavy-tail flows, serial: large working set, closure scheduling, malloc/GC, lazy BFS and PathCache",
		reps: 20,
		cells: func(seed uint64, scale float64) []cellSpec {
			return []cellSpec{heavyTailCell(seed, scale, 0)}
		},
		ladder: func(seed uint64, scale float64) cellSpec { return heavyTailCell(seed, scale, 0) },
	},
	{
		name: "df4096-heavytail-shards2",
		why:  "the same 4096-node cell on 2 shards: partition balance, far-heap overflow and cross-shard rings rather than per-window overhead",
		reps: 28,
		cells: func(seed uint64, scale float64) []cellSpec {
			return []cellSpec{heavyTailCell(seed, scale, 2)}
		},
		ladder: func(seed uint64, scale float64) cellSpec { return heavyTailCell(seed, scale, 0) },
	},
	{
		name: "ft64-apps-replay",
		why:  "closed-loop application-trace replay (5 apps x deterministic/pr-drb): workloads, trace, collectives; reports simulated execution time",
		reps: 10,
		cells: func(seed uint64, scale float64) []cellSpec {
			iters := int(20 * scale)
			if iters < 1 {
				iters = 1
			}
			var out []cellSpec
			for _, app := range appNames {
				for _, policy := range []string{"deterministic", "pr-drb"} {
					out = append(out, cellSpec{
						Topology: "ft-4-3", Policy: policy, Seed: seed,
						App: &appSpec{Name: app, Iterations: iters, TraceTuned: policy == "pr-drb"},
					})
				}
			}
			return out
		},
		ladder: uniformLadder,
	},
	{
		name: "grid64-policy-sweep",
		why:  "a campaign in miniature: 4 topologies x 8 policies x 4 patterns of short cells, so fixed per-cell cost and every policy/topology pair show",
		reps: 15,
		cells: func(seed uint64, scale float64) []cellSpec {
			var out []cellSpec
			for _, topo := range gridTopologies {
				for _, policy := range prdrb.Policies() {
					for _, pattern := range gridPatterns {
						out = append(out, cellSpec{
							Topology: topo, Policy: string(policy), Seed: seed,
							Pattern: &prdrb.PatternSpec{Pattern: pattern, RateMbps: 400, End: scaled(500*us, scale)},
						})
					}
				}
			}
			return out
		},
		ladder: uniformLadder,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repCount scales the reference rep count with the requested run length.
// It is a pure function of (workload, seconds) so that the sim_* metrics
// and sim_digest repeat exactly for a fixed seed.
func (w *workload) repCount(seconds int) int {
	n := (w.reps*seconds + refSeconds/2) / refSeconds
	if n < 3 {
		n = 3
	}
	return n
}

// inputs is everything generated from the seed for one run of a workload:
// Reps[i] is the cell list of timed rep i. The warm-up rep re-uses Reps[0]
// (its results double as the same-seed determinism reference).
type inputs struct {
	Workload string       `json:"workload"`
	Reps     [][]cellSpec `json:"reps"`
}

// generate derives a run's inputs from the seed and nothing else.
func (w *workload) generate(seed uint64, reps int, scale float64) inputs {
	in := inputs{Workload: w.name}
	for _, s := range stats.Seeds(reps, seed) {
		in.Reps = append(in.Reps, w.cells(s, scale))
	}
	return in
}

// bytes renders the inputs canonically; two runs were handed the same
// inputs iff these bytes are equal.
func (in inputs) bytes() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}
