package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Conservative parallel execution (shard group).
//
// A ShardGroup runs N engines — one per topology shard — in lockstep over
// bounded time windows. The window width is the lookahead: the minimum
// latency of any cross-shard link. Within a window every shard executes
// its own events independently (no locks, no shared mutable state);
// anything destined for another shard is appended to a per-(src,dst)
// SPSC ring and only materializes on the destination engine at the next
// window barrier. Because every cross-shard interaction takes at least
// one lookahead of simulated time, an event produced in window k can only
// be scheduled at or after the start of window k+1 — the conservative
// synchronization invariant (checked, not assumed: flushRings panics on a
// violation).
//
// Determinism: shards are data-independent inside a window, the barrier
// drains rings in fixed (dst, src, FIFO) order on one goroutine, and
// barrier tasks run in (time, submission) order — so the execution is a
// pure function of (configuration, seed, shard count), independent of
// GOMAXPROCS and of whether windows run serially or on worker goroutines.

// RemoteReceiver is implemented by components that accept cross-shard
// payload handoff (packets, loss notifications). Credit-style events with
// no payload target a plain Actor instead.
type RemoteReceiver interface {
	HandleRemote(e *Engine, kind uint8, arg uint64, ptr, aux any)
}

// RemoteEvent is a cross-shard handoff record. Target is either an Actor
// (when Ptr and Aux are nil) or a RemoteReceiver. Ptr carries the payload
// (e.g. a *Packet) and Aux the sending context (e.g. the source port)
// without forcing an allocation per handoff.
type RemoteEvent struct {
	At     Time
	Target any
	Ptr    any
	Aux    any
	Arg    uint64
	Kind   uint8
}

// mailbox redelivers ring records on the destination engine. One per
// shard; the slab+freelist keeps barrier delivery allocation-free in
// steady state.
type mailbox struct {
	slab []RemoteEvent
	free []uint32
}

func (m *mailbox) put(ev RemoteEvent) uint32 {
	if n := len(m.free); n > 0 {
		idx := m.free[n-1]
		m.free = m.free[:n-1]
		m.slab[idx] = ev
		return idx
	}
	m.slab = append(m.slab, ev)
	return uint32(len(m.slab) - 1)
}

// HandleEvent implements Actor: dispatch a slab record to its target.
func (m *mailbox) HandleEvent(e *Engine, _ uint8, arg uint64) {
	rec := m.slab[arg]
	m.slab[arg] = RemoteEvent{}
	m.free = append(m.free, uint32(arg))
	if rec.Ptr == nil && rec.Aux == nil {
		rec.Target.(Actor).HandleEvent(e, rec.Kind, rec.Arg)
	} else {
		rec.Target.(RemoteReceiver).HandleRemote(e, rec.Kind, rec.Arg, rec.Ptr, rec.Aux)
	}
}

// barrierTask is group-level work (fault transitions) quantized to window
// barriers, where all shards are synchronized and mutating shared wiring
// state is race-free.
type barrierTask struct {
	at  Time
	seq int
	fn  func()
}

// ShardGroup coordinates N shard engines through window barriers.
type ShardGroup struct {
	Engines []*Engine
	// Window is the barrier interval = cross-shard lookahead.
	Window Time
	// now is the barrier clock: every shard has fully executed below it.
	now     Time
	rings   [][]RemoteEvent // (src*N + dst) SPSC handoff rings
	boxes   []*mailbox
	ctrl    []barrierTask
	ctrlSeq int
	sorted  bool
	// winStart/winEnd bound the window currently (or last) executed. The
	// coordinator writes them before spawning window goroutines, so shard
	// goroutines read them race-free (happens-before via go statement).
	winStart Time
	winEnd   Time
	// barrierFns run single-threaded at every barrier, after all shards
	// have finished the window and before rings flush — the one point
	// where group-wide state (rings, all shards' engines, shared wiring)
	// is quiescent and safe to read.
	barrierFns []func(winEnd Time)
	// probe, when non-nil, observes the phases of the window/barrier loop
	// (see GroupProbe). Nil costs one pointer comparison per window.
	probe GroupProbe
	// startProbe is probe's optional ShardStartProbe side, resolved once
	// in SetProbe.
	startProbe ShardStartProbe
}

// NewShardGroup builds n wheel-mode engines synchronized every window
// nanoseconds. window must be positive: a zero lookahead would serialize
// the shards anyway and breaks the conservative invariant.
func NewShardGroup(n int, window Time) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	if window <= 0 {
		panic("sim: shard window must be positive")
	}
	g := &ShardGroup{
		Engines: make([]*Engine, n),
		Window:  window,
		rings:   make([][]RemoteEvent, n*n),
		boxes:   make([]*mailbox, n),
	}
	for i := range g.Engines {
		e := NewEngine()
		e.EnableWheel()
		g.Engines[i] = e
		g.boxes[i] = &mailbox{}
	}
	return g
}

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.Engines) }

// Now returns the barrier clock.
func (g *ShardGroup) Now() Time { return g.now }

// Processed sums executed events across shards.
//
// Concurrency: each shard's Processed counter is written only by that
// shard's goroutine during a window. Summing from the coordinator (or any
// other goroutine) mid-window is a data race; call it only while the
// group is quiescent — between Run calls, from an OnBarrier hook, or from
// a barrier task. A shard sampler actor may read its *own* engine's
// counter during a window (it runs on that engine). For a bulk race-free
// snapshot at barriers use Stats.
func (g *ShardGroup) Processed() uint64 {
	var total uint64
	for _, e := range g.Engines {
		total += e.Processed
	}
	return total
}

// Len sums pending events across shards (undelivered ring records are not
// counted; rings are empty between Run calls). Same quiescence contract
// as Processed: safe between Run calls and at barriers, racy mid-window.
func (g *ShardGroup) Len() int {
	total := 0
	for _, e := range g.Engines {
		total += e.Len()
	}
	return total
}

// Send enqueues a cross-shard handoff from shard src to shard dst. Safe
// to call from shard src's goroutine during a window; the record is
// delivered on dst's engine at the next barrier. ev.At must be at or
// after the end of the current window — guaranteed by construction when
// the event rides a physical link (latency >= lookahead), and verified at
// the barrier.
func (g *ShardGroup) Send(src, dst int, ev RemoteEvent) {
	i := src*len(g.Engines) + dst
	g.rings[i] = append(g.rings[i], ev)
}

// ScheduleBarrier registers fn to run at the barrier immediately
// preceding the window that contains at (i.e. at most one window early,
// never late). Barrier tasks run single-threaded with all shards
// synchronized, so they may touch state owned by any shard.
func (g *ShardGroup) ScheduleBarrier(at Time, fn func()) {
	g.ctrl = append(g.ctrl, barrierTask{at: at, seq: g.ctrlSeq, fn: fn})
	g.ctrlSeq++
	g.sorted = false
}

// OnBarrier registers fn to run at every window barrier, after all
// shards have synchronized at winEnd and before cross-shard rings flush.
// Hooks run single-threaded in registration order and may read any
// shard's state; they must not schedule events in the past. Multiple
// hooks chain (sampling and tests can observe the same barriers).
func (g *ShardGroup) OnBarrier(fn func(winEnd Time)) {
	g.barrierFns = append(g.barrierFns, fn)
}

// CurrentWindow returns the bounds of the window currently (or most
// recently) executed. Safe to call from a shard goroutine during a
// window: the coordinator writes the bounds before spawning workers.
func (g *ShardGroup) CurrentWindow() (start, end Time) {
	return g.winStart, g.winEnd
}

// RingDepths reports the occupancy of every cross-shard handoff ring,
// flattened src*N+dst. Meaningful at barrier time (inside an OnBarrier
// hook, before the flush empties them); between Run calls all depths are
// zero.
func (g *ShardGroup) RingDepths() []int {
	depths := make([]int, len(g.rings))
	for i, r := range g.rings {
		depths[i] = len(r)
	}
	return depths
}

// nextTime returns the earliest pending timestamp across shards and
// barrier tasks, or Infinity.
func (g *ShardGroup) nextTime() Time {
	next := Infinity
	for _, e := range g.Engines {
		if t := e.NextEventTime(); t < next {
			next = t
		}
	}
	if len(g.ctrl) > 0 && g.ctrl[0].at < next {
		next = g.ctrl[0].at
	}
	return next
}

// runCtrl executes barrier tasks due before winEnd, in (time, submission)
// order.
func (g *ShardGroup) runCtrl(winEnd Time) {
	for len(g.ctrl) > 0 && g.ctrl[0].at < winEnd {
		task := g.ctrl[0]
		g.ctrl = g.ctrl[1:]
		task.fn()
	}
}

// flushRings delivers every ring record to its destination engine, in
// fixed (dst, src, FIFO) order, returning the number delivered. Runs
// single-threaded at the barrier.
func (g *ShardGroup) flushRings() int {
	n := len(g.Engines)
	delivered := 0
	for dst := 0; dst < n; dst++ {
		box := g.boxes[dst]
		eng := g.Engines[dst]
		for src := 0; src < n; src++ {
			ring := &g.rings[src*n+dst]
			for _, ev := range *ring {
				if ev.At < g.now {
					panic(fmt.Sprintf(
						"sim: lookahead violation — cross-shard event at %v before barrier %v (window %v)",
						ev.At, g.now, g.Window))
				}
				eng.ScheduleEvent(ev.At, box, 0, uint64(box.put(ev)))
			}
			delivered += len(*ring)
			*ring = (*ring)[:0]
		}
	}
	return delivered
}

// Run executes the group until no work remains below horizon (exclusive),
// mirroring Engine.Run. It returns the number of events executed across
// all shards.
func (g *ShardGroup) Run(horizon Time) uint64 {
	startProcessed := g.Processed()
	parallel := runtime.GOMAXPROCS(0) > 1 && len(g.Engines) > 1
	for {
		if !g.sorted {
			// Re-sorted inside the loop because barrier tasks may register
			// further barrier tasks.
			sort.SliceStable(g.ctrl, func(i, j int) bool { return g.ctrl[i].at < g.ctrl[j].at })
			g.sorted = true
		}
		next := g.nextTime()
		if next >= horizon {
			if horizon != Infinity {
				for _, e := range g.Engines {
					e.AdvanceTo(horizon)
				}
				if g.now < horizon {
					g.now = horizon
				}
			}
			break
		}
		// Fast-forward across globally idle spans: the window may start at
		// any time ≥ the previous barrier without weakening the lookahead
		// guarantee (a message sent in [start, winEnd) still arrives
		// ≥ start + lookahead ≥ start + Window ≥ winEnd, since windows
		// never exceed one lookahead).
		start := next
		if start < g.now {
			start = g.now
		}
		// Windows end on the absolute Window grid, not at start + Window:
		// barrier times are then a property of the timeline alone, so
		// running to horizon T and continuing is byte-identical to one
		// uninterrupted run whenever T is a grid multiple — the property
		// checkpoint/resume relies on (see internal/runner).
		winEnd := start - start%g.Window + g.Window
		if winEnd > horizon {
			winEnd = horizon
		}
		g.winStart, g.winEnd = start, winEnd
		if g.probe != nil {
			g.probe.WindowStart(start, winEnd)
		}
		for _, e := range g.Engines {
			e.AdvanceTo(start)
		}
		g.runCtrl(winEnd)
		if g.probe != nil {
			g.probe.WindowExec()
		}
		if parallel {
			var wg sync.WaitGroup
			wg.Add(len(g.Engines))
			for i := range g.Engines {
				go func(i int) {
					defer wg.Done()
					g.runShard(i, winEnd)
				}(i)
			}
			wg.Wait()
		} else {
			for i := range g.Engines {
				g.runShard(i, winEnd)
			}
		}
		g.now = winEnd
		if g.probe != nil {
			g.probe.BarrierStart(winEnd)
		}
		for _, fn := range g.barrierFns {
			fn(winEnd)
		}
		if g.probe != nil {
			g.probe.FlushStart()
		}
		flushed := g.flushRings()
		if g.probe != nil {
			g.probe.WindowEnd(flushed)
		}
	}
	return g.Processed() - startProcessed
}

// runShard executes shard i's share of the window ending at winEnd,
// bracketed by the probe's per-shard marks. It runs on the shard's worker
// goroutine when windows are parallel, on the coordinator otherwise.
func (g *ShardGroup) runShard(i int, winEnd Time) {
	e := g.Engines[i]
	if g.startProbe != nil {
		g.startProbe.ShardStart(i)
	}
	before := e.Processed
	e.Run(winEnd)
	if g.probe != nil {
		g.probe.ShardDone(i, e.Processed-before)
	}
}

// RunAll executes until the group fully drains.
func (g *ShardGroup) RunAll() uint64 { return g.Run(Infinity) }
