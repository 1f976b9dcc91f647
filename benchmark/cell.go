package main

import (
	"fmt"
	"runtime"
	"time"

	"prdrb"
)

// horizon bounds every Execute call; all workloads drain long before it.
// On sharded runs Results.Elapsed reports this horizon rather than the
// drain time, which is why no metric here reads Results.Elapsed.
const horizon = 2 * prdrb.Second

// cellResult is what one executed cell yields.
type cellResult struct {
	spec cellSpec
	id   string // "<rep>/<cell index>"
	res  prdrb.Results
	// spanNs is the cell's simulated span: the injection window, the
	// burst-train end or the application execution time — a number fixed by
	// the spec or produced deterministically by the simulation.
	spanNs int64
	events uint64

	setupS, execS float64
	allocBytes    uint64

	// Public counters read at the cell boundary (per-layer metrics).
	queuePeak, poolPeak      int
	creditsStalled, predAcks int64

	// failure names the first correctness check the cell broke ("" = ok).
	failure string
	sim     *prdrb.Sim
}

// built is a cell after set-up, ready to execute.
type built struct {
	sim    *prdrb.Sim
	replay *prdrb.Replay
	spanNs int64
}

// buildCell performs a cell's set-up: topology construction, NewSim and the
// traffic installation. Every Experiment field is explicit; nothing is
// inherited from the runner.Default* globals (assertDefaultsUnset).
func buildCell(spec cellSpec, tr *tracer, parent int) (*built, error) {
	sp := tr.begin("topology.build", parent)
	topo, err := prdrb.TopologyByName(spec.Topology)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	exp := prdrb.Experiment{
		Topology: topo,
		Policy:   prdrb.Policy(spec.Policy),
		Seed:     spec.Seed,
		Shards:   spec.Shards,
	}
	if spec.App != nil && spec.App.TraceTuned {
		cfg, ok := prdrb.TracePolicyConfig(exp.Policy)
		if !ok {
			return nil, fmt.Errorf("policy %q has no trace-tuned configuration", spec.Policy)
		}
		exp.DRB = &cfg
	}
	sp = tr.begin("runner.new", parent)
	s, err := prdrb.NewSim(exp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b := &built{sim: s}
	sp = tr.begin("install", parent)
	defer tr.end(sp)
	switch {
	case spec.Pattern != nil:
		b.spanNs = int64(spec.Pattern.End - spec.Pattern.Start)
		err = s.InstallPattern(*spec.Pattern)
	case spec.Bursts != nil:
		var end prdrb.Time
		end, err = s.InstallBursts(*spec.Bursts)
		b.spanNs = int64(end - spec.Bursts.Start)
	case spec.HeavyTail != nil:
		b.spanNs = int64(spec.HeavyTail.End - spec.HeavyTail.Start)
		err = s.InstallHeavyTail(*spec.HeavyTail)
	case spec.App != nil:
		gen := tr.begin("workloads.generate", sp)
		var trc *prdrb.Trace
		trc, err = prdrb.Workload(spec.App.Name, prdrb.WorkloadOptions{Iterations: spec.App.Iterations})
		tr.end(gen)
		if err == nil {
			b.replay, err = s.PlayTrace(trc, nil)
		}
	default:
		err = fmt.Errorf("cell has no traffic source")
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// processed sums executed events over the simulation's engines.
func processed(s *prdrb.Sim) uint64 {
	var n uint64
	for _, sh := range s.Net.Shards {
		n += sh.Eng.Processed
	}
	return n
}

// pending counts events still queued after Execute.
func pending(s *prdrb.Sim) int {
	if g := s.Net.Group(); g != nil {
		return g.Len()
	}
	return s.Eng.Len()
}

// runCell sets up and executes one cell, timing set-up and Execute
// separately and reading allocation counters around the whole cell. A panic
// anywhere inside is recovered and recorded as the cell's failure.
func runCell(spec cellSpec, id string, tr *tracer) (cr cellResult) {
	cr = cellResult{spec: spec, id: id}
	defer func() {
		if p := recover(); p != nil {
			cr.failure = fmt.Sprintf("panic: %v", p)
		}
	}()
	root := tr.beginCell(id)
	defer tr.end(root)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	b, err := buildCell(spec, tr, root)
	cr.setupS = time.Since(t0).Seconds()
	if err != nil {
		cr.failure = "error: " + err.Error()
		return cr
	}
	sp := tr.begin("runner.execute", root)
	t1 := time.Now()
	cr.res = b.sim.Execute(horizon)
	cr.execS = time.Since(t1).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	cr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if tr != nil {
		// Execute already summarized; the traced run times Summarize alone.
		sp = tr.begin("runner.summarize", root)
		b.sim.Summarize()
		tr.end(sp)
	}

	cr.sim = b.sim
	cr.events = processed(b.sim)
	for _, sh := range b.sim.Net.Shards {
		cr.queuePeak += sh.Eng.PeakQueue()
	}
	_, cr.poolPeak = b.sim.Net.PacketPoolStats()
	cr.creditsStalled = b.sim.Net.CreditsStalled()
	cr.predAcks = b.sim.Net.PredictiveAcksSent()
	cr.spanNs = b.spanNs
	if b.replay != nil {
		cr.spanNs = int64(b.replay.ExecutionTime())
	}
	cr.failure = checkCell(cr.res, pending(b.sim), b.replay)
	return cr
}

// checkCell applies the per-cell correctness gate: all workloads are
// fault-free and lossless, so anything short of complete, drained delivery
// is a failure.
func checkCell(res prdrb.Results, queued int, rep *prdrb.Replay) string {
	switch {
	case res.DeliveredPkts <= 0:
		return "loss: no packet delivered"
	case res.AcceptedRatio != 1:
		return fmt.Sprintf("loss: accepted ratio %v != 1", res.AcceptedRatio)
	case res.DroppedPkts > 0:
		return fmt.Sprintf("loss: %d packets dropped", res.DroppedPkts)
	case res.UnreachableMsgs > 0:
		return fmt.Sprintf("loss: %d messages unreachable", res.UnreachableMsgs)
	case queued > 0:
		return fmt.Sprintf("undrained: %d events pending at the horizon", queued)
	case rep != nil && rep.Err() != nil:
		return "undrained: " + rep.Err().Error()
	}
	return ""
}
