package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"prdrb/internal/sim"
)

// Tracer records trace events in memory. Every method is nil-safe: a nil
// *Tracer is the disabled state and costs one pointer comparison, so
// instrumentation sites need no separate enabled flag.
//
// The tracer is not safe for concurrent use; a traced sweep must run its
// simulations sequentially (cmd/experiments forces this when -trace is
// set).
type Tracer struct {
	sample uint64
	run    int
	events []Event
}

// NewTracer returns a tracer keeping 1-in-sample packets (sample <= 1
// keeps all).
func NewTracer(sample int) *Tracer {
	if sample < 1 {
		sample = 1
	}
	return &Tracer{sample: uint64(sample), run: -1}
}

// Sample returns the tracer's 1-in-N packet sampling divisor (1 = all).
func (t *Tracer) Sample() int {
	if t == nil {
		return 0
	}
	return int(t.sample)
}

// BeginRun opens a new run scope: subsequent events carry the next run
// index. Call once per simulation sharing this tracer.
func (t *Tracer) BeginRun() {
	if t == nil {
		return
	}
	t.run++
}

// Sampled reports whether packet id is in the trace sample. False on a nil
// tracer, so hot paths gate packet emissions with this single call.
func (t *Tracer) Sampled(pkt uint64) bool {
	return t != nil && pkt%t.sample == 0
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

func (t *Tracer) emit(ev Event) {
	if t.run > 0 {
		ev.Run = t.run
	}
	t.events = append(t.events, ev)
}

// PacketInjected records a data packet entering its source NIC queue.
func (t *Tracer) PacketInjected(at sim.Time, pkt uint64, src, dst, bytes int) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: KindInject, Pkt: int64(pkt),
		Src: src, Dst: dst, Router: -1, Port: -1, Val: int64(bytes)})
}

// PacketHop records a packet starting transmission at a router port after
// waiting in its output buffers.
func (t *Tracer) PacketHop(at sim.Time, pkt uint64, router, port int, wait sim.Time) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: KindHop, Pkt: int64(pkt),
		Src: -1, Dst: -1, Router: router, Port: port, Dur: int64(wait)})
}

// PacketDelivered records a packet reaching its destination NIC. mpi is
// the packet's MPI_type header value (0 = untyped synthetic traffic).
func (t *Tracer) PacketDelivered(at sim.Time, pkt uint64, src, dst int, latency sim.Time, mpi uint8) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: KindDeliver, Pkt: int64(pkt),
		Src: src, Dst: dst, Router: -1, Port: -1, Dur: int64(latency), Mpi: int(mpi)})
}

// PacketDropped records a packet lost on a failed link at router.
func (t *Tracer) PacketDropped(at sim.Time, pkt uint64, src, dst, router int) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: KindDrop, Pkt: int64(pkt),
		Src: src, Dst: dst, Router: router, Port: -1})
}

// Unreachable records a message refused at injection for lack of any
// healthy route.
func (t *Tracer) Unreachable(at sim.Time, src, dst int) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: KindUnreachable, Pkt: -1,
		Src: src, Dst: dst, Router: -1, Port: -1})
}

// Control records a PR-DRB controller decision at node toward dst.
func (t *Tracer) Control(at sim.Time, kind Kind, node, dst int, dur sim.Time, val int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: kind, Pkt: -1,
		Src: node, Dst: dst, Router: -1, Port: -1, Dur: int64(dur), Val: val})
}

// RouterEvent records a router-located control event: fault transitions
// and GPA predictive-ACK generation.
func (t *Tracer) RouterEvent(at sim.Time, kind Kind, router, port int, val int64) {
	if t == nil {
		return
	}
	t.emit(Event{At: int64(at), Kind: kind, Pkt: -1,
		Src: -1, Dst: -1, Router: router, Port: port, Val: val})
}

// WriteJSONL serializes the event log as JSON Lines, one event per line,
// in emission order. The output of a fixed-seed run is byte-stable.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for i := range t.events {
		b, err := json.Marshal(&t.events[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Synthetic process IDs grouping the trace rows in Perfetto. Pids 1-3
// belong to the packet tracer; the engine profiler (internal/perf) uses
// its own pid so both traces can be concatenated without track clashes.
const (
	chromePidPackets = 1 // async packet spans, one track per source node
	chromePidRouters = 2 // per-router hop slices (dur = queue wait)
	chromePidControl = 3 // instant control/fault events
)

// WriteChromeTrace serializes the event log in Chrome trace-event format:
// packet lifecycles become async spans (b/e pairs keyed by run:packet),
// hops become duration slices on their router's track, and control/fault
// events become instants. The file loads directly in Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := []ChromeEvent{
		ProcessNameEvent(chromePidPackets, "packets (by source node)"),
		ProcessNameEvent(chromePidRouters, "routers (hop queue waits)"),
		ProcessNameEvent(chromePidControl, "control plane"),
	}
	for i := range t.events {
		ev := &t.events[i]
		id := fmt.Sprintf("%d:%d", ev.Run, ev.Pkt)
		switch ev.Kind {
		case KindInject:
			events = append(events, ChromeEvent{
				Name: fmt.Sprintf("pkt %d->%d", ev.Src, ev.Dst), Cat: "packet",
				Ph: "b", Ts: Us(ev.At), Pid: chromePidPackets, Tid: ev.Src, ID: id,
				Args: map[string]any{"bytes": ev.Val},
			})
		case KindDeliver, KindDrop:
			args := map[string]any{"latency_ns": ev.Dur}
			if ev.Kind == KindDrop {
				args = map[string]any{"dropped_at_router": ev.Router}
			}
			events = append(events, ChromeEvent{
				Name: fmt.Sprintf("pkt %d->%d", ev.Src, ev.Dst), Cat: "packet",
				Ph: "e", Ts: Us(ev.At), Pid: chromePidPackets, Tid: ev.Src, ID: id,
				Args: args,
			})
		case KindHop:
			events = append(events, ChromeEvent{
				Name: fmt.Sprintf("hop pkt %d", ev.Pkt), Cat: "hop",
				Ph: "X", Ts: Us(ev.At - ev.Dur), Dur: Us(ev.Dur),
				Pid: chromePidRouters, Tid: ev.Router,
				Args: map[string]any{"port": ev.Port, "wait_ns": ev.Dur},
			})
		default:
			tid := ev.Src
			if tid < 0 {
				tid = ev.Router
			}
			if tid < 0 {
				tid = 0
			}
			events = append(events, ChromeEvent{
				Name: string(ev.Kind), Cat: "control",
				Ph: "i", Ts: Us(ev.At), Pid: chromePidControl, Tid: tid, S: "t",
				Args: map[string]any{"src": ev.Src, "dst": ev.Dst,
					"router": ev.Router, "dur_ns": ev.Dur, "val": ev.Val},
			})
		}
	}
	return WriteChromeEvents(w, events)
}
