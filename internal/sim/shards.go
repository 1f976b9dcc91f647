package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
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
// GOMAXPROCS and of how many workers share the shards.
//
// Window loop: Run has W = min(GOMAXPROCS, shards) workers at its disposal
// and decides window by window whether to use them. The calling goroutine
// is worker 0 (and the coordinator: barrier tasks, hooks and the ring flush
// run on it); worker w owns the static shard set {i : i mod W == w} and
// runs it in ascending order.
//
// A *released* window is handed to all W workers and joined through two
// atomic words, each on its own cache line: the coordinator writes the
// window bounds and bumps the epoch, every worker runs its shards and
// bumps the done count, and the coordinator — after running its own
// shards — waits for done == W-1. Those two atomics carry every
// happens-before edge between coordinator and workers. An *inline* window
// runs every shard on the coordinator, in ascending order, and touches
// neither word: it is the W = 1 loop. Releasing and joining costs a few
// microseconds more than a perfect split saves on a window of a few dozen
// events (the 64-node fabrics: 18–24 events per 316 ns lookahead), so a
// window is released only when recent windows held enough work to pay for
// it (chooseMode; the constants below). The extra workers are started by
// the first released window of a Run and stopped before it returns; a Run
// whose windows all stay inline starts no goroutine, and while a stretch of
// inline windows lasts the workers of an earlier released stretch poll the
// epoch, then yield, then sleep (gate.await).
//
// Everything after the join — barrier tasks, hooks, ring flush, lookahead
// check, panic capture — is the same code for both kinds of window, and the
// choice reads nothing but executed-event counts, so results and the mode
// sequence itself are the same pure function of (configuration, seed, shard
// count) for every GOMAXPROCS.

const (
	// cacheLine is the padding unit that keeps words written by different
	// workers off each other's cache lines (64 B on every host we run on).
	// What it buys, measured on the handoff rings (two goroutines each
	// Send-ing on their own source row, 2 vCPUs, median of five): 11.5 ns a
	// Send with the rows on one line, 5.6 ns with a line between them.
	cacheLine = 64
	// spinPolls and yieldPolls bound the first two stages of gate.await.
	// Sizing (2-vCPU host, benchmark of record at -seconds 3, six seeds a
	// cell, median wall_s_per_sim_ms; (spin, yield) → ft64-uniform-shards2 /
	// df4096-heavytail-shards2, parent 0.0203 / 1.30): (512, 1024) 0.0165 /
	// 0.94, (512, 4096) 0.0164 / 0.90, (256, 16384) 0.0162 / 0.87,
	// (4096, 1024) 0.0161 / 0.89 — one plateau, which is why these are
	// constants and not options. Below it, sleeping early gives the 4096-node
	// gain back: yield 512 → 0.99, 256 → 1.09, 64 → 1.56 s/ms. The spin is
	// the short end of the plateau because a race-detector build polls
	// through a non-preemptible runtime call, and a long spin then holds up
	// every GC stop-the-world: 4096 polls cost the -race barrier stress
	// 250 µs a window against 20 µs at 512 and below.
	spinPolls  = 256
	yieldPolls = 1024
	// releaseEvents, inlineEvents and loadShift are the window-mode rule
	// (ShardGroup.chooseMode): windows are released while the executed
	// events per window, averaged with weight 2^-loadShift, are at least
	// releaseEvents, and inline again once they are below inlineEvents. A
	// release costs ≈ 3.4 µs over a perfect two-way split (2-vCPU host,
	// ft-4-3 saturated: 4.6 µs a released window against 2.4 µs inline at
	// 17.7 events), so it pays from ≈ 50 events a window at that fabric's
	// 135 ns an event and from ≈ 14 at the 4096-node dragonfly's 500 ns; the
	// rule cannot read the clock, so one count serves both. Sizing (same
	// host, benchmark of record at -seconds 3, seeds 41–46, median
	// wall_s_per_sim_ms; releaseEvents → ft64-uniform-shards2 /
	// df4096-heavytail-shards2, every window released 0.0155 / 0.87):
	// 16 → 0.0146 / 0.82, 32 → 0.0084 / 0.86, 64 → 0.0096 / 0.90,
	// 128 → 0.0084 / 0.93. At 16 the 64-node cell (18–24 events a window)
	// still releases 90 % of its windows; from 32 up it releases none, so
	// those three readings are one execution. The 4096-node cell releases
	// the 30–50 % of its windows that hold nearly all of its events at every
	// setting and its readings differ by less than its seeds do. 64 keeps
	// 64-node cells with ACK traffic (35–40 events a window, under their
	// break-even) inline; 128 starts to give up windows a 500 ns event would
	// have paid for. Constants, not options, for the reason spinPolls is.
	releaseEvents = 64
	inlineEvents  = releaseEvents / 2
	loadShift     = 3
)

// gate is one word of the window barrier — a counter alone on its cache
// line — plus what its waiters need to sleep. A patient waiter escalates
// the way the runtime's own locks do: spinPolls plain polls (the other side
// is usually within a microsecond of its bump, and no scheduler gets
// involved), then yieldPolls polls with a runtime.Gosched in between (when
// more goroutines are runnable than there are Ps — several sharded cells of
// one campaign — the others get the P), then a sleep on the condition
// variable, so a waiter whose peer has lost its CPU to another process
// stops competing with it. An impatient waiter sleeps at once: Run uses
// that when it has more workers than the host has CPUs, where no amount of
// polling can see a bump from a worker that is not running.
type gate struct {
	_ [cacheLine]byte
	v atomic.Uint64
	_ [cacheLine - 8]byte
	// sleepers counts waiters in the sleep stage. bump reads it after
	// changing v and a sleeper re-reads v after raising it, so one of the
	// two always notices the other.
	sleepers atomic.Int32
	mu       sync.Mutex
	wake     sync.Cond // L is &mu, set by NewShardGroup
}

// bump increments the word and wakes sleeping waiters.
func (b *gate) bump() {
	b.v.Add(1)
	if b.sleepers.Load() != 0 {
		b.mu.Lock()
		b.wake.Broadcast()
		b.mu.Unlock()
	}
}

// await returns once the word equals want.
func (b *gate) await(want uint64, patient bool) {
	if patient {
		for i := 0; i < spinPolls+yieldPolls; i++ {
			if b.v.Load() == want {
				return
			}
			if i >= spinPolls {
				runtime.Gosched()
			}
		}
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for b.v.Load() != want {
		b.wake.Wait()
	}
	b.sleepers.Add(-1)
	b.mu.Unlock()
}

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
// steady state. The leading pad keeps two shards' mailboxes (allocated
// back to back, each written by its own worker on every delivery) off one
// cache line.
type mailbox struct {
	_    [cacheLine]byte
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
	now Time
	// rings holds the (src, dst) SPSC handoff rings at src*ringStride + dst.
	// Send appends from src's worker, which rewrites the slice header, so
	// the stride leaves at least a cache line between two sources' rows.
	rings      [][]RemoteEvent
	ringStride int
	boxes      []*mailbox
	ctrl       []barrierTask
	ctrlSeq    int
	sorted     bool
	// winStart/winEnd bound the window currently (or last) executed. The
	// coordinator writes them before it bumps epoch, and a worker reads them
	// only after it has observed that bump, so the reads are race-free
	// (happens-before via the epoch atomic).
	winStart Time
	winEnd   Time
	// epoch counts window releases (and the one stop release that ends each
	// Run that started workers); done counts the workers that finished the
	// released window. halt is written before the stop release; patient (see
	// gate) is fixed before the workers start. started says the Run in
	// progress has started its workers, and running tracks them so Run
	// returns only once they have exited.
	epoch   gate
	done    gate
	halt    bool
	patient bool
	started bool
	running sync.WaitGroup
	// load is the smoothed executed-event count per window, scaled by
	// 1<<loadShift; released is the mode of the last window chosen; modes
	// counts the choices (see chooseMode). All three live across Run calls,
	// so a sliced run chooses like an uninterrupted one.
	load     uint64
	released bool
	modes    WindowModes
	// forceMode, when non-nil, overrules the rule: it is given the number of
	// windows chosen so far and returns whether to release the next one.
	// Tests only; nothing outside this package's tests can reach it.
	forceMode func(window uint64) bool
	// fault is the lowest-shard panic captured in the window being joined:
	// workers record it under faultMu before they arrive, the coordinator
	// reads it after the join.
	faultMu sync.Mutex
	fault   *shardFault
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
	// A slice header is three words; round the pad up to a whole header.
	const headerBytes = 3 * bits.UintSize / 8
	stride := n + (cacheLine+headerBytes-1)/headerBytes
	g := &ShardGroup{
		Engines:    make([]*Engine, n),
		Window:     window,
		rings:      make([][]RemoteEvent, n*stride),
		ringStride: stride,
		boxes:      make([]*mailbox, n),
	}
	g.epoch.wake.L = &g.epoch.mu
	g.done.wake.L = &g.done.mu
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
// Concurrency: each shard's Processed counter is written only by the
// worker that owns the shard, during a window. Summing from the
// coordinator (or any other goroutine) mid-window is a data race; call it
// only while the group is quiescent — between Run calls, from an
// OnBarrier hook, or from a barrier task: the done count every worker
// bumps after its last shard orders those reads after the writes. For a
// bulk race-free snapshot at barriers use Stats.
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
// to call from shard src's handlers during a window (one worker runs all
// of src's events, and only row src of the rings is written); the record
// is delivered on dst's engine at the next barrier, which the worker's
// done bump orders after the append. ev.At must be at or after the end of
// the current window — guaranteed by construction when the event rides a
// physical link (latency >= lookahead), and verified at the barrier.
func (g *ShardGroup) Send(src, dst int, ev RemoteEvent) {
	i := src*g.ringStride + dst
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
// Hooks run single-threaded on the coordinator (workers may be parked, not
// running) in registration order and may read any shard's state; they must
// not schedule events in the past. A hook runs on every window of the run,
// so one that wants a coarser cadence returns early on the barriers it
// skips. Multiple hooks chain (sampling and tests can observe the same
// barriers).
func (g *ShardGroup) OnBarrier(fn func(winEnd Time)) {
	g.barrierFns = append(g.barrierFns, fn)
}

// CurrentWindow returns the bounds of the window currently (or most
// recently) executed: inside an OnBarrier hook, the window that hook's
// winEnd closed; between Run calls, the last window of the previous Run,
// which the barrier clock (Now) has moved past when Run parked at a later
// horizon. Also safe to call from a shard's handlers during a window: the
// coordinator writes the bounds before the epoch bump that releases the
// window to the workers.
func (g *ShardGroup) CurrentWindow() (start, end Time) {
	return g.winStart, g.winEnd
}

// RingDepths reports the occupancy of every cross-shard handoff ring,
// flattened src*N+dst. Meaningful at barrier time (inside an OnBarrier
// hook, before the flush empties them); between Run calls all depths are
// zero.
func (g *ShardGroup) RingDepths() []int {
	n := len(g.Engines)
	depths := make([]int, 0, n*n)
	for src := 0; src < n; src++ {
		for _, r := range g.rings[src*g.ringStride:][:n] {
			depths = append(depths, len(r))
		}
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
			ring := &g.rings[src*g.ringStride+dst]
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

// WindowModes counts how a group's windows were executed. The counts are a
// pure function of (configuration, seed, shard count): they describe what
// the rule chose, also when Run had a single worker and a released window
// therefore ran like an inline one.
type WindowModes struct {
	// Inline windows ran on the coordinator alone; Released windows were
	// handed to every worker of the Run.
	Inline, Released uint64
	// Flips counts changes of mode between consecutive windows (a group
	// starts inline).
	Flips uint64
}

// WindowModes returns the mode counters. Quiescent-only, like Stats.
func (g *ShardGroup) WindowModes() WindowModes { return g.modes }

// chooseMode decides whether the next window is released, and counts the
// choice. The rule compares the smoothed events per window with two
// thresholds: the average keeps one odd window — a burst landing among idle
// ones, a lull under load — from changing the mode, and the gap between the
// thresholds keeps a load that sits on one of them from changing it every
// few windows, so a stretch of either mode is long against the cost of
// ending it (a worker that has gone to sleep takes tens of microseconds to
// wake; one that is still polling takes none).
func (g *ShardGroup) chooseMode() bool {
	threshold := uint64(releaseEvents)
	if g.released {
		threshold = inlineEvents
	}
	release := g.load >= threshold<<loadShift
	if g.forceMode != nil {
		release = g.forceMode(g.modes.Inline + g.modes.Released)
	}
	if release != g.released {
		g.released = release
		g.modes.Flips++
	}
	if release {
		g.modes.Released++
	} else {
		g.modes.Inline++
	}
	return release
}

// Run executes the group until no work remains below horizon (exclusive),
// mirroring Engine.Run. It returns the number of events executed across
// all shards. Run starts its W-1 extra workers at the first window it
// releases, and stops and waits for them before it returns or panics, so no
// goroutine outlives the call and repeated or sliced Run calls are legal. A
// panic in any shard, on a worker or inline, is re-raised here, on the
// caller, naming the shard.
func (g *ShardGroup) Run(horizon Time) uint64 {
	startProcessed := g.Processed()
	processed := startProcessed
	workers := min(runtime.GOMAXPROCS(0), len(g.Engines))
	defer g.stopWorkers()
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
		if g.chooseMode() && workers > 1 {
			if !g.started {
				g.startWorkers(workers)
			}
			// Release: everything written above happens-before the workers'
			// reads through the epoch bump. Join: everything the workers
			// wrote happens-before the code below through their done bumps.
			g.done.v.Store(0)
			g.epoch.bump()
			g.runShards(0, workers)
			g.done.await(uint64(workers-1), g.patient)
		} else {
			g.runShards(0, 1)
		}
		if f := g.fault; f != nil {
			g.fault = nil
			panic(fmt.Sprintf("sim: panic on shard %d: %v\n\n%s", f.shard, f.value, f.stack))
		}
		total := g.Processed()
		g.load += total - processed - g.load>>loadShift
		processed = total
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
	return processed - startProcessed
}

// startWorkers starts workers 1 … workers-1 of the Run in progress; they
// wait for the next epoch bump.
func (g *ShardGroup) startWorkers(workers int) {
	g.halt = false
	g.patient = workers <= runtime.NumCPU()
	g.started = true
	g.running.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go g.work(w, workers, g.epoch.v.Load())
	}
}

// work is the body of worker w ≥ 1 of a Run with the given worker count:
// wait for the release after epoch seen, run the owned shards, arrive.
func (g *ShardGroup) work(w, workers int, seen uint64) {
	defer g.running.Done()
	for {
		seen++
		g.epoch.await(seen, g.patient)
		if g.halt {
			return
		}
		g.runShards(w, workers)
		g.done.bump()
	}
}

// stopWorkers, if the Run in progress started its workers, releases them
// one last time with halt set and waits for them to exit. Whenever it runs —
// normal return, or a panic unwinding Run from coordinator code — every
// worker is waiting on the epoch.
func (g *ShardGroup) stopWorkers() {
	if !g.started {
		return
	}
	g.started = false
	g.halt = true
	g.epoch.bump()
	g.running.Wait()
}

// shardFault is a panic captured on a worker, to be re-raised by Run.
type shardFault struct {
	shard int
	value any
	stack []byte
}

// runShards executes worker w's shards for the current window in
// ascending order. A panic in a shard (handler, probe) is captured instead
// of killing the process from a bare goroutine: the worker abandons the
// rest of its set and still arrives at the barrier, and Run re-raises the
// lowest-numbered shard's panic — the same one for every worker count,
// since every shard below it ran to completion on whichever worker owns it.
func (g *ShardGroup) runShards(w, workers int) {
	i := w
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			g.faultMu.Lock()
			if g.fault == nil || i < g.fault.shard {
				g.fault = &shardFault{shard: i, value: r, stack: stack}
			}
			g.faultMu.Unlock()
		}
	}()
	for ; i < len(g.Engines); i += workers {
		g.runShard(i)
	}
}

// runShard executes shard i's share of the current window, bracketed by
// the probe's per-shard marks, on the worker that owns i.
func (g *ShardGroup) runShard(i int) {
	e := g.Engines[i]
	if g.startProbe != nil {
		g.startProbe.ShardStart(i)
	}
	before := e.Processed
	e.Run(g.winEnd)
	if g.probe != nil {
		g.probe.ShardDone(i, e.Processed-before)
	}
}

// RunAll executes until the group fully drains.
func (g *ShardGroup) RunAll() uint64 { return g.Run(Infinity) }
