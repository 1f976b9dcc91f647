// Command prdrbsim runs a single interconnection-network simulation from
// the command line and prints the paper's metrics (global average latency,
// per-router contention, throughput, and — for trace workloads —
// execution time).
//
// Synthetic pattern run:
//
//	prdrbsim -topology ft-4-3 -policy pr-drb -pattern shuffle -rate 900 \
//	         -bursts 8 -burst-len 250us -burst-gap 300us
//
// Application trace run:
//
//	prdrbsim -topology ft-4-3 -policy pr-drb -workload pop -iters 12
//
// Compare several policies in one invocation:
//
//	prdrbsim -policy deterministic,drb,pr-drb -pattern transpose -rate 900
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prdrb"
	"prdrb/cmd/internal/obsflags"
	"prdrb/internal/stats"
	"prdrb/internal/telemetry"
)

func main() {
	var (
		topoSpec = flag.String("topology", "ft-4-3", "topology spec: "+strings.Join(prdrb.TopologySpecForms(), ", "))
		policies = flag.String("policy", "pr-drb", "comma-separated policy list: deterministic,random,cyclic,adaptive,drb,pr-drb,fr-drb,pr-fr-drb")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		seeds    = flag.Int("seeds", 1, "number of seeds to average")
		shards   = flag.Int("shards", 1, "conservative-parallel engine shards (1 = serial reference engine; -workload, -replay and -goal always run serial)")

		pattern  = flag.String("pattern", "", "synthetic pattern: shuffle|bitreversal|transpose|uniform")
		rate     = flag.Float64("rate", 600, "injection rate per node, Mbps")
		nodes    = flag.Int("nodes", 0, "communicating nodes for the pattern (0 = all)")
		bursts   = flag.Int("bursts", 8, "number of bursts (0 = continuous for -duration)")
		burstLen = flag.Duration("burst-len", 250*time.Microsecond, "burst length")
		burstGap = flag.Duration("burst-gap", 300*time.Microsecond, "gap between bursts")
		duration = flag.Duration("duration", 2*time.Millisecond, "injection window for continuous traffic")

		workload = flag.String("workload", "", "application trace: "+strings.Join(prdrb.WorkloadNames(), "|"))
		iters    = flag.Int("iters", 10, "workload iterations")

		faultSpec = flag.String("faults", "", "fault plan, e.g. 'link@500us:3.1+2ms, rand2@1ms+500us~2ms' (link@T:R.P[+repair], router@T:R[+repair], degrade@T:R.P*F[+dur], flap@T:R.P*N/period, randN@T[+spread][~mttr])")

		ckptPath   = flag.String("checkpoint", "", "write a checkpoint (a determinism seal of the state) at mid-run to this file (atomic)")
		ckptExit   = flag.Bool("checkpoint-exit", false, "exit after writing the checkpoint (for resume testing)")
		resumePath = flag.String("resume", "", "resume from a checkpoint file; the invocation must repeat the writing run's configuration exactly")

		traceIn   = flag.String("replay", "", "replay a serialized workload trace file instead of -workload/-pattern")
		traceOut  = flag.String("save-trace", "", "write the generated workload trace to this file and exit")
		goalIn    = flag.String("goal", "", "replay a GOAL dependency-graph schedule file")
		goalOut   = flag.String("save-goal", "", "convert the -workload trace to a GOAL schedule, write it to this file and exit")
		knowIn    = flag.String("knowledge", "", "preload a PR-DRB solution database (JSON) before the run")
		knowOut   = flag.String("save-knowledge", "", "export the solution database after the run")
		showMap   = flag.Bool("map", false, "print the latency surface map")
		energy    = flag.Bool("energy", false, "print the link-energy report")
		provision = flag.Bool("provision", false, "print the offline link-demand analysis for the workload")
		verbose   = flag.Bool("v", false, "print controller statistics")

		statusLinger = flag.Duration("status-linger", 0, "keep serving the status endpoints this long after the run completes")

		congestion = flag.Bool("congestion", false, "enable the fabric congestion observability plane (link/VC weather map, FCT percentiles, anomaly flight recorder)")
		congWindow = flag.Duration("congestion-window", 10*time.Microsecond, "weather-map sampling window (virtual time)")
		congOut    = flag.String("congestion-out", "", "write the congestion artifact JSON to this file (render with 'prdrbtrace congestion'; implies -congestion)")
		flightOut  = flag.String("flight", "", "write anomaly flight-recorder dumps (JSONL) to this file (implies -congestion)")

		heavytail = flag.String("heavytail", "", "heavy-tailed flow workload by flow-size CDF: websearch|datamining|cache (uses -rate as per-node load and -duration as the window)")
		htPattern = flag.String("ht-pattern", "uniform", "heavy-tail destination pattern: uniform|grouplocal")
		htPLocal  = flag.Float64("ht-plocal", 0.5, "grouplocal fraction of intra-group flows")
		htGroup   = flag.Int("ht-group", 0, "grouplocal group width in nodes (0 = derive from topology)")
		htOn      = flag.Duration("ht-on", 200*time.Microsecond, "mean ON burst duration")
		htOff     = flag.Duration("ht-off", 0, "mean OFF silence duration (0 = always on)")
		htMaxFlow = flag.Int("ht-maxflow", 0, "truncate the flow-size CDF at this many bytes (0 = no cap)")
	)
	flag.StringVar(topoSpec, "topo", "ft-4-3", "alias for -topology")
	obs := obsflags.Register(flag.CommandLine, "prdrbsim")
	flag.Parse()

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "prdrbsim: -seeds %d, want at least 1\n", *seeds)
		os.Exit(2)
	}
	if err := obs.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.StopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "prdrbsim:", err)
		}
	}()

	topo, err := prdrb.TopologyByName(*topoSpec)
	if err != nil {
		fatal(err)
	}

	// Trace generation / persistence utilities.
	var loadedTrace *prdrb.Trace
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		loadedTrace, err = prdrb.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if *workload == "" {
			fatal(fmt.Errorf("-save-trace needs -workload"))
		}
		tr, err := prdrb.Workload(*workload, prdrb.WorkloadOptions{Iterations: *iters})
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := prdrb.WriteTrace(f, tr); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s: %d ranks, %d events\n", *traceOut, tr.Ranks, tr.TotalEvents())
		return
	}
	var loadedGoal *prdrb.Goal
	if *goalIn != "" {
		f, err := os.Open(*goalIn)
		if err != nil {
			fatal(err)
		}
		loadedGoal, err = prdrb.ReadGOAL(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *goalOut != "" {
		if *workload == "" && loadedTrace == nil {
			fatal(fmt.Errorf("-save-goal needs -workload or -replay"))
		}
		tr := loadedTrace
		if tr == nil {
			var err error
			tr, err = prdrb.Workload(*workload, prdrb.WorkloadOptions{Iterations: *iters})
			if err != nil {
				fatal(err)
			}
		}
		g, err := prdrb.GoalFromTrace(tr)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*goalOut)
		if err != nil {
			fatal(err)
		}
		if err := prdrb.WriteGOAL(f, g); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s: %d ranks, %d nodes\n", *goalOut, g.Ranks, g.TotalNodes())
		return
	}
	if *provision {
		tr := loadedTrace
		if tr == nil {
			if *workload == "" {
				fatal(fmt.Errorf("-provision needs -workload or -trace"))
			}
			var err error
			tr, err = prdrb.Workload(*workload, prdrb.WorkloadOptions{Iterations: *iters})
			if err != nil {
				fatal(err)
			}
		}
		d, err := prdrb.AnalyzeDemand(topo, tr, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(d.Report(topo, 10))
		return
	}

	haveWork := 0
	for _, set := range []bool{*pattern != "", *workload != "", loadedTrace != nil, loadedGoal != nil, *heavytail != ""} {
		if set {
			haveWork++
		}
	}
	if haveWork != 1 {
		fatal(fmt.Errorf("choose exactly one of -pattern, -workload, -replay, -goal or -heavytail"))
	}
	if *ckptPath != "" || *resumePath != "" {
		// A checkpoint identifies one run; resume rebuilds the identical
		// simulation. Closed-loop replay (-workload/-replay/-goal) and
		// preloaded knowledge hold host-side state the checkpoint does not
		// capture, so only the open-loop synthetic workloads qualify.
		if strings.Contains(*policies, ",") || *seeds != 1 {
			fatal(fmt.Errorf("-checkpoint/-resume need a single policy and a single seed"))
		}
		if *workload != "" || loadedTrace != nil || loadedGoal != nil || *knowIn != "" {
			fatal(fmt.Errorf("-checkpoint/-resume support synthetic workloads only (-pattern or -heavytail)"))
		}
	}

	if *congOut != "" || *flightOut != "" {
		*congestion = true
	}

	var knowledge *prdrb.Knowledge
	if *knowIn != "" {
		f, err := os.Open(*knowIn)
		if err != nil {
			fatal(err)
		}
		knowledge, err = prdrb.ReadKnowledge(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	// One scenario serves every policy and seed of the invocation; the
	// workload flags are exclusive, so exactly one traffic source is set.
	sc := prdrb.Scenario{
		Experiment: prdrb.Experiment{Topology: topo, Shards: *shards,
			Congestion: *congestion, CongestionWindow: prdrb.Time(congWindow.Nanoseconds())},
		Knowledge: knowledge,
		Faults:    *faultSpec,
		Drain:     prdrb.Second,
	}
	dur := prdrb.Time(duration.Nanoseconds())
	switch {
	case loadedGoal != nil:
		sc.Goal = loadedGoal
	case *workload != "" || loadedTrace != nil:
		tr := loadedTrace
		if tr == nil {
			if tr, err = prdrb.Workload(*workload, prdrb.WorkloadOptions{Iterations: *iters}); err != nil {
				fatal(err)
			}
		}
		sc.Traces = []prdrb.MappedTrace{{Trace: tr}}
	case *heavytail != "":
		sc.HeavyTail = &prdrb.HeavyTailSpec{
			CDF: *heavytail, MaxFlowBytes: *htMaxFlow,
			Pattern: *htPattern, GroupSize: *htGroup, PLocal: *htPLocal,
			LoadMbps: *rate, OnMean: prdrb.Time(htOn.Nanoseconds()), OffMean: prdrb.Time(htOff.Nanoseconds()),
			Start: 0, End: dur,
		}
	case *bursts > 0:
		sc.Bursts = &prdrb.BurstSpec{
			Pattern: *pattern, RateMbps: *rate,
			Len: prdrb.Time(burstLen.Nanoseconds()), Gap: prdrb.Time(burstGap.Nanoseconds()),
			Count: *bursts, PatternNodes: *nodes,
		}
	default:
		sc.Pattern = &prdrb.PatternSpec{Pattern: *pattern, RateMbps: *rate, Start: 0, End: dur, PatternNodes: *nodes}
	}
	if sc.Goal != nil || sc.Traces != nil {
		sc.Drain = 10 * prdrb.Second * prdrb.Time(1+*iters/10)
	}
	ck := checkpointing{path: *ckptPath, exit: *ckptExit, resume: *resumePath}

	for _, polName := range strings.Split(*policies, ",") {
		sc.Policy = prdrb.Policy(strings.TrimSpace(polName))
		var latencies, execs []float64
		var last *prdrb.Sim
		var lastRes prdrb.Results
		for i := 0; i < *seeds; i++ {
			sc.Seed = *seed + uint64(i)
			s, res, exec, err := runOnce(sc, ck)
			if err != nil {
				fatal(err)
			}
			latencies = append(latencies, res.GlobalLatencyUs)
			if exec > 0 {
				execs = append(execs, exec.Micros())
			}
			last, lastRes = s, res
		}
		lat := stats.Summarize(latencies)
		fmt.Printf("%-14s globalLatency=%8.2fus", sc.Policy, lat.Mean)
		if *seeds > 1 {
			fmt.Printf(" ±%5.2f", lat.CI95)
		}
		fmt.Printf("  peak=%8.2fus@%-8s accepted=%.3f pkts=%d",
			lastRes.PeakContentionUs, lastRes.PeakRouter, lastRes.AcceptedRatio, lastRes.DeliveredPkts)
		if len(execs) > 0 {
			fmt.Printf(" exec=%10.1fus", stats.Summarize(execs).Mean)
		}
		fmt.Println()
		if *faultSpec != "" {
			fmt.Printf("    faults: dropped=%d unreachable=%d pathFailures=%d recoveries=%d",
				lastRes.DroppedPkts, lastRes.UnreachableMsgs, lastRes.Stats.PathFailures, lastRes.Recoveries)
			if lastRes.Recoveries > 0 {
				fmt.Printf(" recoveryP50=%.1fus p99=%.1fus", lastRes.RecoveryP50Us, lastRes.RecoveryP99Us)
			}
			fmt.Println()
		}
		if *verbose {
			st := lastRes.Stats
			fmt.Printf("    paths opened/closed %d/%d, patterns saved %d, reused %d (x%d), watchdog %d, acks %d\n",
				st.PathsOpened, st.PathsClosed, lastRes.SavedPatterns, st.PatternsReused,
				st.ReuseApplications, st.WatchdogFirings, st.AcksSeen)
		}
		if *showMap && last != nil {
			fmt.Print(last.Map().String())
		}
		if *energy && last != nil {
			fmt.Println("   ", last.Energy(prdrb.DefaultEnergyModel()))
		}
		if *congOut != "" && last != nil {
			if err := writeCongestionArtifact(last, *congOut); err != nil {
				fatal(err)
			}
		}
		if *flightOut != "" && last != nil {
			if err := writeFlightDumps(last, *flightOut); err != nil {
				fatal(err)
			}
		}
		if *knowOut != "" && last != nil {
			k := last.ExportKnowledge()
			f, err := os.Create(*knowOut)
			if err != nil {
				fatal(err)
			}
			if _, err := k.WriteTo(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Printf("    exported %d solutions to %s\n", k.Size(), *knowOut)
		}
	}

	if err := obs.Finish(*seed, map[string]any{
		"topology": *topoSpec, "policy": *policies, "seeds": *seeds,
		"pattern": *pattern, "rate_mbps": *rate, "bursts": *bursts,
		"duration_ns": (*duration).Nanoseconds(),
		"workload":    *workload, "iters": *iters, "faults": *faultSpec,
	}); err != nil {
		fatal(err)
	}
	if obs.Board != nil && *statusLinger > 0 {
		fmt.Fprintf(os.Stderr, "prdrbsim: lingering %s for status scrapes\n", *statusLinger)
		time.Sleep(*statusLinger)
	}
}

// checkpointing carries the -checkpoint, -checkpoint-exit and -resume
// flags.
type checkpointing struct {
	path   string
	exit   bool
	resume string
}

// writeCongestionArtifact serializes the run's congestion artifact as
// indented JSON. Field order is fixed by the struct, so identical-seed
// runs write byte-identical files.
func writeCongestionArtifact(s *prdrb.Sim, path string) error {
	a, err := s.CongestionArtifact()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if err := obsflags.WriteArtifactBytes(path, append(data, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "prdrbsim: wrote congestion artifact %s (%d windows, %d flight dumps)\n",
		path, len(a.Windows), a.FlightDumps)
	return nil
}

// writeFlightDumps serializes the anomaly flight-recorder dumps as JSONL
// (an empty file when no trigger fired).
func writeFlightDumps(s *prdrb.Sim, path string) error {
	dumps := s.FlightDumps()
	if err := obsflags.WriteArtifact(path, func(w io.Writer) error { return telemetry.WriteFlightDumps(w, dumps) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "prdrbsim: wrote %d flight dumps to %s\n", len(dumps), path)
	return nil
}

// runToHorizon executes the simulation to horizon, first resuming from a
// checkpoint and/or writing one at mid-run when requested. Every resume
// replays from t = 0, so a second, later checkpoint would save no work.
func runToHorizon(s *prdrb.Sim, horizon prdrb.Time, ck checkpointing) (prdrb.Results, error) {
	start := prdrb.Time(0)
	if ck.resume != "" {
		m, err := s.Resume(ck.resume)
		if err != nil {
			return prdrb.Results{}, err
		}
		start = m.At
		fmt.Fprintf(os.Stderr, "prdrbsim: resumed %s at t=%dns (replay verified)\n", ck.resume, start)
	}
	if ck.path != "" && start < horizon {
		t := min(s.AlignCheckpoint(start+horizon/2), horizon)
		s.Execute(t)
		n, err := s.WriteCheckpoint(ck.path)
		if err != nil {
			return prdrb.Results{}, err
		}
		fmt.Fprintf(os.Stderr, "prdrbsim: checkpoint t=%dns -> %s (%d bytes)\n", t, ck.path, n)
		if ck.exit {
			fmt.Fprintln(os.Stderr, "prdrbsim: exiting after checkpoint (-checkpoint-exit)")
			os.Exit(0)
		}
	}
	return s.Execute(horizon), nil
}

// runOnce runs one policy and seed of the invocation: straight to the
// scenario's horizon, or through its Execute steps when checkpointing.
func runOnce(sc prdrb.Scenario, ck checkpointing) (*prdrb.Sim, prdrb.Results, prdrb.Time, error) {
	if ck == (checkpointing{}) {
		o, err := sc.Run()
		return o.Sim, o.Res, o.Exec, err
	}
	s, _, horizon, err := sc.Build()
	if err != nil {
		return nil, prdrb.Results{}, 0, err
	}
	res, err := runToHorizon(s, horizon, ck)
	return s, res, 0, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prdrbsim:", err)
	os.Exit(1)
}
