package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// recordingProbe checks the GroupProbe phase protocol: strict per-window
// ordering of the coordinator phases, one ShardStart → ShardDone pair per
// shard between WindowExec and BarrierStart, and never more than
// maxInFlight shard bodies between their marks at once.
type recordingProbe struct {
	windows     int
	execs       int
	barriers    int
	flushes     int
	ends        int
	inExec      bool
	shardEvents []uint64
	shardCalls  []int32 // atomics: ShardDone may run concurrently per shard
	shardStarts []int32 // own-slot writes from the shard's worker
	inFlight    atomic.Int32
	maxInFlight int32
	remote      int
	lastStart   Time
	lastEnd     Time
	fail        func(format string, args ...any)
}

func (p *recordingProbe) WindowStart(winStart, winEnd Time) {
	if p.windows != p.ends {
		p.fail("WindowStart before previous WindowEnd (%d vs %d)", p.windows, p.ends)
	}
	if winEnd <= winStart {
		p.fail("empty window [%v, %v)", winStart, winEnd)
	}
	p.windows++
	p.lastStart, p.lastEnd = winStart, winEnd
}

func (p *recordingProbe) WindowExec() {
	p.execs++
	p.inExec = true
}

func (p *recordingProbe) ShardStart(shard int) {
	if !p.inExec {
		p.fail("ShardStart outside the exec phase")
	}
	p.shardStarts[shard]++
	if n := p.inFlight.Add(1); n > p.maxInFlight {
		p.fail("%d shard bodies in flight, want at most %d", n, p.maxInFlight)
	}
}

func (p *recordingProbe) ShardDone(shard int, events uint64) {
	if !p.inExec {
		p.fail("ShardDone outside the exec phase")
	}
	if got, want := p.shardStarts[shard], atomic.LoadInt32(&p.shardCalls[shard])+1; got != want {
		p.fail("shard %d: ShardDone #%d after %d ShardStart marks", shard, want, got)
	}
	atomic.AddInt32(&p.shardCalls[shard], 1)
	atomic.AddUint64(&p.shardEvents[shard], events)
	p.inFlight.Add(-1)
}

func (p *recordingProbe) BarrierStart(winEnd Time) {
	p.inExec = false
	if n := p.inFlight.Load(); n != 0 {
		p.fail("BarrierStart with %d shard bodies still in flight", n)
	}
	if winEnd != p.lastEnd {
		p.fail("BarrierStart at %v, window ended at %v", winEnd, p.lastEnd)
	}
	for s, n := range p.shardCalls {
		if int(atomic.LoadInt32(&p.shardCalls[s])) != p.windows {
			p.fail("shard %d reported %d windows of %d", s, n, p.windows)
		}
	}
	p.barriers++
}

func (p *recordingProbe) FlushStart() { p.flushes++ }

func (p *recordingProbe) WindowEnd(remoteRecords int) {
	p.ends++
	p.remote += remoteRecords
}

// TestGroupProbeSequencing pins the probe phase protocol and its counts
// against an observable workload at every worker/shard ratio: one worker,
// a worker per shard, and two workers running two shards each.
func TestGroupProbeSequencing(t *testing.T) {
	for _, c := range []struct {
		name          string
		shards, procs int
	}{{"procs=1", 2, 1}, {"procs=4", 2, 4}, {"shards=4,procs=2", 4, 2}} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			g := NewShardGroup(c.shards, 100)
			g.forceMode = allReleased // one event a window: the rule would keep them inline
			probe := &recordingProbe{
				shardEvents: make([]uint64, c.shards),
				shardCalls:  make([]int32, c.shards),
				shardStarts: make([]int32, c.shards),
				maxInFlight: int32(min(c.shards, c.procs)),
				fail:        t.Errorf,
			}
			g.SetProbe(probe)
			var log []string
			last := c.shards - 1
			a := &pingActor{g: g, shard: 0, latency: 100, log: &log, hops: 20}
			b := &pingActor{g: g, shard: last, latency: 150, log: &log, hops: 20}
			a.peer, b.peer = b, a
			g.Engines[0].ScheduleEvent(0, a, 0, 0)
			g.RunAll()
			if probe.windows == 0 {
				t.Fatal("probe saw no windows")
			}
			if probe.windows != probe.execs || probe.windows != probe.barriers ||
				probe.windows != probe.flushes || probe.windows != probe.ends {
				t.Fatalf("phase counts diverge: start=%d exec=%d barrier=%d flush=%d end=%d",
					probe.windows, probe.execs, probe.barriers, probe.flushes, probe.ends)
			}
			var total uint64
			for _, n := range probe.shardEvents {
				total += n
			}
			if total != g.Processed() {
				t.Fatalf("ShardDone events sum to %d, group processed %d", total, g.Processed())
			}
			// 21 handler firings; 20 sends cross shards (the last hop stops).
			if probe.remote != 20 {
				t.Fatalf("probe counted %d remote records, want 20", probe.remote)
			}
		})
	}
}

// TestShardGroupStats pins the quiescent snapshot: per-shard processed
// counts match the engines and the sum matches the group.
func TestShardGroupStats(t *testing.T) {
	g := NewShardGroup(2, 100)
	var log []string
	a := &pingActor{g: g, shard: 0, latency: 100, log: &log, hops: 10}
	b := &pingActor{g: g, shard: 1, latency: 150, log: &log, hops: 10}
	a.peer, b.peer = b, a
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	g.RunAll()
	stats := g.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d shard stats", len(stats))
	}
	var sum uint64
	for i, st := range stats {
		if st.Processed != g.Engines[i].Processed {
			t.Fatalf("shard %d: stats processed %d, engine %d", i, st.Processed, g.Engines[i].Processed)
		}
		if st.Pending != 0 {
			t.Fatalf("shard %d: %d pending after drain", i, st.Pending)
		}
		sum += st.Processed
	}
	if sum != g.Processed() {
		t.Fatalf("stats sum %d != group processed %d", sum, g.Processed())
	}
}
