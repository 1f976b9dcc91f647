package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// pingActor bounces a counter between two shards through the group's
// handoff rings, modelling a link whose latency equals the lookahead.
type pingActor struct {
	g       *ShardGroup
	shard   int
	peer    *pingActor
	latency Time
	log     *[]string
	hops    int
}

func (p *pingActor) HandleEvent(e *Engine, kind uint8, arg uint64) {
	*p.log = append(*p.log, fmt.Sprintf("s%d@%d arg%d", p.shard, e.Now(), arg))
	if int(arg) >= p.hops {
		return
	}
	p.g.Send(p.shard, p.peer.shard, RemoteEvent{
		At:     e.Now() + p.latency,
		Target: p.peer,
		Arg:    arg + 1,
	})
}

func runPingPong(t *testing.T, procs int) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	g := NewShardGroup(2, 100)
	g.forceMode = allReleased
	var log []string
	a := &pingActor{g: g, shard: 0, latency: 100, log: &log, hops: 20}
	b := &pingActor{g: g, shard: 1, latency: 150, log: &log, hops: 20}
	a.peer, b.peer = b, a
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	g.Run(Infinity)
	return log
}

// TestShardGroupPingPong pins cross-shard delivery order and timing, and
// that the trace is independent of GOMAXPROCS.
func TestShardGroupPingPong(t *testing.T) {
	serial := runPingPong(t, 1)
	parallel := runPingPong(t, 4)
	if len(serial) != 21 {
		t.Fatalf("got %d hops, want 21: %v", len(serial), serial)
	}
	if serial[0] != "s0@0 arg0" || serial[1] != "s1@100 arg1" || serial[2] != "s0@250 arg2" {
		t.Fatalf("unexpected prefix: %v", serial[:3])
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("GOMAXPROCS divergence at %d: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

// TestShardGroupLookaheadViolation pins that an under-latency handoff is
// caught at the barrier instead of silently corrupting causality.
func TestShardGroupLookaheadViolation(t *testing.T) {
	g := NewShardGroup(2, 100)
	var log []string
	a := &pingActor{g: g, shard: 0, latency: 10, log: &log, hops: 3} // latency < window
	b := &pingActor{g: g, shard: 1, latency: 10, log: &log, hops: 3}
	a.peer, b.peer = b, a
	// The first send happens at t=0 toward t=10; the window ends at 100,
	// so the barrier must reject it.
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	g.Run(Infinity)
}

// TestShardGroupBarrierTasks pins barrier-task quantization: a task runs
// at the barrier preceding the window containing its timestamp, in
// (time, submission) order, with all engines' clocks aligned.
func TestShardGroupBarrierTasks(t *testing.T) {
	g := NewShardGroup(2, 100)
	var order []string
	var taskNow []Time
	g.ScheduleBarrier(510, func() { order = append(order, "b"); taskNow = append(taskNow, g.Engines[0].Now()) })
	g.ScheduleBarrier(510, func() { order = append(order, "c") })
	g.ScheduleBarrier(250, func() { order = append(order, "a") })
	// An event on shard 1 far later keeps the group alive past the tasks.
	fired := Time(0)
	g.Engines[1].Schedule(1000, func(e *Engine) { fired = e.Now() })
	g.Run(Infinity)
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("task order %v", order)
	}
	if fired != 1000 {
		t.Fatalf("event fired at %v", fired)
	}
	// The t=510 task must run at a barrier at or before 510, never after.
	if len(taskNow) != 1 || taskNow[0] > 510 {
		t.Fatalf("barrier task ran at %v, want <= 510", taskNow)
	}
}

// TestShardGroupHorizon pins Run's exclusive horizon and resumability at
// the group level.
func TestShardGroupHorizon(t *testing.T) {
	g := NewShardGroup(2, 50)
	var fired []Time
	g.Engines[0].Schedule(40, func(e *Engine) { fired = append(fired, e.Now()) })
	g.Engines[1].Schedule(200, func(e *Engine) { fired = append(fired, e.Now()) })
	g.Run(200)
	if len(fired) != 1 || fired[0] != 40 {
		t.Fatalf("Run(200) fired %v", fired)
	}
	if g.Now() != 200 {
		t.Fatalf("Now = %v, want 200", g.Now())
	}
	g.Run(Infinity)
	if len(fired) != 2 || fired[1] != 200 {
		t.Fatalf("drain fired %v", fired)
	}
}
