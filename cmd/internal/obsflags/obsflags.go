// Package obsflags is the observability front-end prdrbsim and experiments
// share: the nine flags (-trace -trace-sample -manifest -pprof -cpuprofile
// -status -status-interval -perf -perf-trace), the set-up they ask for, the
// artifacts they write when the runs are done, and the atomic artifact
// writer with its SIGINT sweep. Register, then Start after flag.Parse, then
// Finish. It is the only place under cmd/ that assigns the runner.Default*
// globals: every simulation either tool builds picks the bundle up from
// there, with no per-run plumbing.
package obsflags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"prdrb/internal/perf"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// sharedNote ends the help of the five flags whose recorder (tracer,
// registry, profiler) is one per process and not concurrency-safe.
const sharedNote = "; in experiments this forces serial execution (one simulation at a time, -procs ignored)"

// Flags holds the parsed flag values and, after Start, what they set up.
type Flags struct {
	tool string

	trace, manifest, pprofAddr, cpuProfile string
	status, perfOut, perfTrace             string
	traceSample                            int
	statusInterval                         time.Duration

	// Board is the status board (nil unless -status), Live the always-on
	// progress counters the status server and progress lines read.
	Board *telemetry.Board
	Live  *telemetry.LiveStats

	// tel is set by -trace, -manifest or -status (/metrics serves its
	// registry); prof by -perf or -perf-trace.
	tel     *telemetry.Telemetry
	prof    *perf.Profiler
	stopCPU func() error
	started time.Time
}

// Register declares the shared flags on fs for the named tool.
func Register(fs *flag.FlagSet, tool string) *Flags {
	f := &Flags{tool: tool}
	fs.StringVar(&f.trace, "trace", "", "write a JSONL telemetry event trace to this file (a Chrome trace for Perfetto is written alongside)"+sharedNote)
	fs.IntVar(&f.traceSample, "trace-sample", 1, "keep 1-in-N packets in the telemetry trace (control events are always kept)")
	fs.StringVar(&f.manifest, "manifest", "", "write a run-manifest JSON (config, seed, code version, metrics) to this file"+sharedNote)
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.status, "status", "", "serve the live status plane (/metrics, /status, /events) on this address (e.g. localhost:6061 or 127.0.0.1:0)"+sharedNote)
	fs.DurationVar(&f.statusInterval, "status-interval", 100*time.Microsecond, "virtual-time sampling interval for the status plane (0 = the default)")
	fs.StringVar(&f.perfOut, "perf", "", "write an engine perf report JSON to this file (render with 'prdrbtrace perf')"+sharedNote)
	fs.StringVar(&f.perfTrace, "perf-trace", "", "write a wall-clock Perfetto trace of the engine (per-shard window/barrier-wait spans) to this file"+sharedNote)
	return f
}

// SharedRecorder names the first flag given that attaches a per-process
// recorder (see sharedNote), or "" when simulations may run concurrently.
func (f *Flags) SharedRecorder() string {
	for _, fl := range []struct{ name, val string }{
		{"-trace", f.trace}, {"-manifest", f.manifest}, {"-status", f.status},
		{"-perf", f.perfOut}, {"-perf-trace", f.perfTrace},
	} {
		if fl.val != "" {
			return fl.name
		}
	}
	return ""
}

// Validate rejects a -shards or -trace-sample below 1, which would
// otherwise run serial or trace every packet without a word.
func (f *Flags) Validate(shards int) error {
	if shards < 1 {
		return fmt.Errorf("-shards %d, want at least 1", shards)
	}
	if f.traceSample < 1 {
		return fmt.Errorf("-trace-sample %d, want at least 1", f.traceSample)
	}
	return nil
}

// DefaultShards selects the conservative-parallel engine for every
// simulation built without an explicit shard count (experiments -shards).
func DefaultShards(n int) {
	if n > 1 {
		runner.DefaultShards = n
	}
}

// Start sets up what the flags ask for and installs the SIGINT sweep.
func (f *Flags) Start() error {
	if f.statusInterval < 0 {
		return fmt.Errorf("-status-interval %v is negative", f.statusInterval)
	}
	f.started = time.Now()
	installInterruptCleanup()
	if f.pprofAddr != "" {
		addr, err := telemetry.ServePprof(f.pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", f.tool, addr)
	}
	if f.cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(f.cpuProfile)
		if err != nil {
			return err
		}
		f.stopCPU = stop
	}
	if f.trace != "" || f.manifest != "" || f.status != "" {
		f.tel = telemetry.New(telemetry.Options{Trace: f.trace != "", Sample: f.traceSample})
		runner.DefaultTelemetry = f.tel
	}
	if f.perfOut != "" || f.perfTrace != "" {
		// One profiler accumulates across every run of the invocation; the
		// report's deterministic counters cover the whole command.
		f.prof = perf.New(perf.Options{Trace: f.perfTrace != ""})
		runner.DefaultPerf = f.prof
	}
	f.Live = &telemetry.LiveStats{}
	runner.DefaultLive = f.Live
	if f.status != "" {
		f.Board = telemetry.NewBoard()
		runner.DefaultStatus = f.Board
		runner.DefaultStatusEvery = sim.Time(f.statusInterval.Nanoseconds())
		addr, err := telemetry.ServeStatus(f.status, f.Board, f.Live)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: status on http://%s/status\n", f.tool, addr)
	}
	return nil
}

// StopProfile finishes the CPU profile, if one is being written. Finish
// calls it; a tool that may return before Finish defers it.
func (f *Flags) StopProfile() error {
	stop := f.stopCPU
	if stop == nil {
		return nil
	}
	f.stopCPU = nil
	return stop()
}

// Finish writes the artifacts once every run has completed: the trace
// (JSONL + Chrome), the run manifest carrying seed and config, the perf
// report and timeline. Everything goes through WriteArtifact, so an
// interrupt mid-write leaves nothing truncated.
func (f *Flags) Finish(seed uint64, config map[string]any) error {
	return errors.Join(f.StopProfile(), f.writeTelemetry(seed, config), f.writePerf())
}

func (f *Flags) writeTelemetry(seed uint64, config map[string]any) error {
	tel := f.tel
	if tel == nil {
		return nil
	}
	var chromePath string
	if f.trace != "" {
		chromePath = telemetry.ChromeTracePath(f.trace)
		if err := WriteArtifact(f.trace, tel.Tracer.WriteJSONL); err != nil {
			return err
		}
		if err := WriteArtifact(chromePath, tel.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d events to %s and %s\n", f.tool, tel.Tracer.Len(), f.trace, chromePath)
	}
	if f.manifest == "" {
		return nil
	}
	m := telemetry.NewManifest(f.tool, config)
	m.Seed = seed
	m.WallTimeSec = time.Since(f.started).Seconds()
	m.Metrics = tel.Registry.Snapshot()
	if f.trace != "" {
		m.Trace = &telemetry.TraceInfo{
			File: f.trace, Chrome: chromePath,
			Events: tel.Tracer.Len(), Sample: tel.Tracer.Sample(),
		}
	}
	buf, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	if err := WriteArtifactBytes(f.manifest, buf); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: wrote manifest %s\n", f.tool, f.manifest)
	return nil
}

func (f *Flags) writePerf() error {
	if f.prof == nil {
		return nil
	}
	r := f.prof.Report()
	if f.perfOut != "" {
		if err := WriteArtifact(f.perfOut, f.prof.WriteReport); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote perf report %s\n", f.tool, f.perfOut)
	}
	if f.perfTrace != "" {
		if err := WriteArtifact(f.perfTrace, f.prof.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote perf trace %s (%d window spans)\n", f.tool, f.perfTrace, r.TraceSpans)
	}
	fmt.Fprintf(os.Stderr, "%s: perf: %d events, %d windows, wall=%.3fms busy=%.3fms idle=%.1f%% imbalance=%.2f speedup=%.2fx\n",
		f.tool, r.TotalEvents, r.Windows, float64(r.WallNs)/1e6, float64(r.BusyNs)/1e6,
		100*r.IdleFraction, r.ImbalanceRatio, r.EffectiveSpeedup)
	return nil
}
