package sim

// Window/barrier instrumentation hooks and quiescent engine snapshots.
//
// The shard group's run loop is the place where wall-clock time is won or
// lost (window execution vs. barrier wait vs. ring flush), but the sim
// package must stay free of wall-clock reads to keep execution a pure
// function of (configuration, seed, shard count). GroupProbe splits the
// difference: the run loop reports *where it is* through a narrow
// interface and an external profiler (internal/perf) attaches the
// timestamps. A nil probe costs one pointer comparison per window — the
// same zero-overhead-when-disabled contract the tracer and the status
// board follow.

// GroupProbe observes the phases of ShardGroup.Run's window/barrier loop.
// All methods except ShardDone are invoked on the coordinator goroutine
// (the one that called Run), strictly ordered within each window:
//
//	WindowStart → WindowExec → (ShardStart → ShardDone)×N → BarrierStart → FlushStart → WindowEnd
//
// ShardDone is invoked once per shard per window, on the worker that owns
// the shard (the coordinator itself for worker 0's shards). Calls for
// shards of different workers may be concurrent with each other but never
// with the coordinator phases: WindowExec happens-before every ShardDone
// (the epoch bump that releases the window), and every ShardDone
// happens-before BarrierStart (the workers' done bumps). Implementations
// must only touch per-shard state from ShardDone.
type GroupProbe interface {
	// WindowStart opens a window spanning [winStart, winEnd) of virtual
	// time, before engines align and barrier tasks run.
	WindowStart(winStart, winEnd Time)
	// WindowExec marks the end of barrier-task execution — shard event
	// execution begins immediately after.
	WindowExec()
	// ShardDone reports that a shard finished executing the window, with
	// the number of events it executed.
	ShardDone(shard int, events uint64)
	// BarrierStart marks all shards joined at winEnd, before barrier
	// hooks (OnBarrier) run.
	BarrierStart(winEnd Time)
	// FlushStart marks the end of the barrier hooks and the start of the
	// cross-shard ring flush.
	FlushStart()
	// WindowEnd closes the window; remoteRecords counts the cross-shard
	// handoff records the flush delivered.
	WindowEnd(remoteRecords int)
}

// ShardStartProbe is the optional per-shard start mark of a GroupProbe. A
// probe that also implements it gets ShardStart(i) immediately before
// shard i executes its window, on the same goroutine as the matching
// ShardDone — so done − start is the shard's own execution time even when
// one worker runs several shards one after another. Same contract
// as ShardDone: only per-shard state may be touched; WindowExec
// happens-before it and it happens-before BarrierStart.
type ShardStartProbe interface {
	ShardStart(shard int)
}

// SetProbe attaches (or with nil detaches) the run-loop probe. Must be
// called while the group is quiescent (before Run, or at a barrier).
func (g *ShardGroup) SetProbe(p GroupProbe) {
	g.probe = p
	g.startProbe, _ = p.(ShardStartProbe)
}

// EngineStats is a point-in-time snapshot of one engine's counters,
// taken while the engine is quiescent.
type EngineStats struct {
	// Processed counts events executed so far; Pending counts scheduled,
	// live, not-yet-fired events.
	Processed uint64
	Pending   int
	// PeakQueue/FreeList describe the event-record pool (see PeakQueue,
	// FreeListLen).
	PeakQueue int
	FreeList  int
	// FarOverflows counts events scheduled beyond the wheel span that
	// overflowed into the far heap; FarMigrations counts the ones that
	// later migrated back into a ring slot (cancelled far events are
	// recycled without migrating, so migrations ≤ overflows). Both are
	// zero on heap-mode (serial) engines.
	FarOverflows  uint64
	FarMigrations uint64
}

// Stats snapshots the engine's counters. Safe only while the engine is
// not executing (between Run calls, or from barrier context for shard
// engines).
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Processed: e.Processed,
		Pending:   e.pending,
		PeakQueue: e.peakQueue,
		FreeList:  e.freeN,
	}
	st.FarOverflows, st.FarMigrations = e.FarStats()
	return st
}

// Stats snapshots every shard engine's counters. Quiescent-only: call it
// between Run calls, from an OnBarrier hook, or from a GroupProbe method
// other than ShardStart/ShardDone — never while workers may be mid-window.
// This is the race-free bulk alternative to reading Len/Processed from a
// sampler (see their doc comments for the per-method contract).
func (g *ShardGroup) Stats() []EngineStats {
	out := make([]EngineStats, len(g.Engines))
	for i, e := range g.Engines {
		out[i] = e.Stats()
	}
	return out
}
