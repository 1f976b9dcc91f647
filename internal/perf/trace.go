package perf

import (
	"fmt"
	"io"

	"prdrb/internal/telemetry"
)

// Perfetto timeline export: the retained window spans become one track
// per shard (window-execution slices followed by barrier-wait slices)
// plus a barrier track carrying the single-threaded coordinator phases
// (barrier tasks, OnBarrier hooks, ring flush). Timestamps are *wall*
// nanoseconds from the profiler origin — unlike the packet tracer, whose
// timeline is virtual time — so the file shows where real time went; the
// virtual window bounds ride along as span args for correlation.

// chromePidEngine groups the profiler tracks, distinct from the packet
// tracer's pids 1-3 so the two traces can be viewed side by side.
const chromePidEngine = 10

// barrierTid is the coordinator track; shard i uses tid i+1.
const barrierTid = 0

// TraceEvents converts the retained window spans to Chrome trace events.
func (p *Profiler) TraceEvents() []telemetry.ChromeEvent {
	if p == nil || len(p.spans) == 0 {
		return nil
	}
	shards := 0
	for _, sp := range p.spans {
		if len(sp.Shards) > shards {
			shards = len(sp.Shards)
		}
	}
	events := []telemetry.ChromeEvent{
		telemetry.ProcessNameEvent(chromePidEngine, "engine (wall clock, per shard)"),
		telemetry.ThreadNameEvent(chromePidEngine, barrierTid, "barrier (coordinator)"),
	}
	for i := 0; i < shards; i++ {
		events = append(events, telemetry.ThreadNameEvent(chromePidEngine, i+1, fmt.Sprintf("shard %d", i)))
	}
	for wi := range p.spans {
		sp := &p.spans[wi]
		winArgs := map[string]any{
			"window":       wi,
			"win_start_ns": sp.VStartNs,
			"win_end_ns":   sp.VEndNs,
		}
		// Coordinator track: ctrl (align + barrier tasks), hooks, flush.
		if d := sp.ExecNs - sp.StartNs; d > 0 {
			events = append(events, telemetry.ChromeEvent{
				Name: "ctrl", Cat: "barrier", Ph: "X",
				Ts: telemetry.Us(sp.StartNs), Dur: telemetry.Us(d),
				Pid: chromePidEngine, Tid: barrierTid, Args: winArgs,
			})
		}
		if d := sp.FlushNs - sp.BarrierNs; d > 0 {
			events = append(events, telemetry.ChromeEvent{
				Name: "hooks", Cat: "barrier", Ph: "X",
				Ts: telemetry.Us(sp.BarrierNs), Dur: telemetry.Us(d),
				Pid: chromePidEngine, Tid: barrierTid, Args: winArgs,
			})
		}
		if d := sp.EndNs - sp.FlushNs; d > 0 {
			events = append(events, telemetry.ChromeEvent{
				Name: "flush", Cat: "barrier", Ph: "X",
				Ts: telemetry.Us(sp.FlushNs), Dur: telemetry.Us(d),
				Pid: chromePidEngine, Tid: barrierTid,
				Args: map[string]any{"window": wi, "remote_records": sp.Remote},
			})
		}
		// Shard tracks: the execution slice where it really ran (a gap before
		// it is the wait for the shard's turn), then the barrier wait.
		for si, ss := range sp.Shards {
			if ss.BusyNs > 0 {
				events = append(events, telemetry.ChromeEvent{
					Name: fmt.Sprintf("win@%dns", sp.VStartNs), Cat: "window", Ph: "X",
					Ts: telemetry.Us(ss.StartNs), Dur: telemetry.Us(ss.BusyNs),
					Pid: chromePidEngine, Tid: si + 1,
					Args: map[string]any{
						"window":       wi,
						"events":       ss.Events,
						"win_start_ns": sp.VStartNs,
						"win_end_ns":   sp.VEndNs,
					},
				})
			}
			if done := ss.StartNs + ss.BusyNs; sp.BarrierNs > done {
				events = append(events, telemetry.ChromeEvent{
					Name: "barrier-wait", Cat: "idle", Ph: "X",
					Ts: telemetry.Us(done), Dur: telemetry.Us(sp.BarrierNs - done),
					Pid: chromePidEngine, Tid: si + 1,
					Args: map[string]any{"window": wi},
				})
			}
		}
	}
	return events
}

// WriteTrace serializes the Perfetto timeline. A profiler without
// retained spans (tracing off, or a serial run with no windows) writes a
// valid empty trace.
func (p *Profiler) WriteTrace(w io.Writer) error {
	return telemetry.WriteChromeEvents(w, p.TraceEvents())
}
