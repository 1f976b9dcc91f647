package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"prdrb/internal/sim"
)

// Property: the incremental mean of Eq 4.1 equals the arithmetic mean.
func TestRunningAvgMatchesArithmeticMean(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var r RunningAvg
		sum := 0.0
		for _, v := range vals {
			r.Add(float64(v))
			sum += float64(v)
		}
		want := sum / float64(len(vals))
		return math.Abs(r.Mean()-want) < 1e-6*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningAvgEmpty(t *testing.T) {
	var r RunningAvg
	if r.Mean() != 0 || r.Count() != 0 {
		t.Fatal("empty RunningAvg not zero")
	}
}

func TestNodeLatencyGlobal(t *testing.T) {
	nl := NewNodeLatency(4)
	nl.Observe(0, 100)
	nl.Observe(0, 300) // dst 0 avg: 200
	nl.Observe(2, 400) // dst 2 avg: 400
	// Global (Eq 4.2) averages only destinations with traffic: (200+400)/2.
	if g := nl.Global(); g != 300 {
		t.Fatalf("Global = %v, want 300", g)
	}
	if nl.Dst(0) != 200 || nl.Dst(2) != 400 || nl.Dst(1) != 0 {
		t.Fatal("per-destination averages wrong")
	}
}

func TestSeriesWindows(t *testing.T) {
	s := NewSeries(100)
	s.Add(10, 1)
	s.Add(50, 3) // window [0,100): avg 2
	s.Add(150, 10)
	s.Add(160, 20) // window [100,200): avg 15, max 20
	s.Add(350, 7)  // window [300,400)
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("got %d samples: %+v", len(got), got)
	}
	if got[0].Avg != 2 || got[0].At != 100 {
		t.Fatalf("window 0: %+v", got[0])
	}
	if got[1].Avg != 15 || got[1].Max != 20 || got[1].N != 2 {
		t.Fatalf("window 1: %+v", got[1])
	}
	if got[2].At != 400 || got[2].Avg != 7 {
		t.Fatalf("window 2: %+v", got[2])
	}
}

func TestSeriesPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero window")
		}
	}()
	NewSeries(0)
}

func TestContentionPeakAndMap(t *testing.T) {
	c := NewContention(4, 0)
	c.Observe(1, 100, 0)
	c.Observe(1, 300, 1)
	c.Observe(3, 50, 2)
	r, avg := c.Peak()
	if r != 1 || avg != 200 {
		t.Fatalf("Peak = (%d, %v)", r, avg)
	}
	if c.Max(1) != 300 || c.Count(1) != 2 {
		t.Fatal("router 1 stats wrong")
	}
	m := BuildLatencyMap(c, func(r int) string { return map[int]string{1: "(1,0)", 3: "(3,0)"}[r] })
	if len(m.Cells) != 2 {
		t.Fatalf("map has %d cells, want 2 (idle routers omitted)", len(m.Cells))
	}
	if m.Peak().Label != "(1,0)" || m.Peak().AvgNs != 200 {
		t.Fatalf("map peak = %+v", m.Peak())
	}
	if m.String() == "" {
		t.Fatal("empty map rendering")
	}
	// GlobalAvg over active routers: (200 + 50) / 2.
	if g := c.GlobalAvg(); g != 125 {
		t.Fatalf("GlobalAvg = %v", g)
	}
}

func TestContentionEmptyPeak(t *testing.T) {
	c := NewContention(2, 0)
	if r, _ := c.Peak(); r != -1 {
		t.Fatalf("Peak of empty = %d", r)
	}
	if (&LatencyMap{}).Peak().Router != -1 {
		t.Fatal("empty map peak should be -1")
	}
}

func TestThroughput(t *testing.T) {
	var tp Throughput
	tp.Inject(1024)
	tp.Inject(1024)
	tp.Deliver(1024)
	if r := tp.AcceptedRatio(); r != 0.5 {
		t.Fatalf("AcceptedRatio = %v", r)
	}
	// 1024 bytes in 1 ms = 8.192 Mbps.
	if got := tp.Mbps(sim.Millisecond); math.Abs(got-8.192) > 1e-9 {
		t.Fatalf("Mbps = %v", got)
	}
	var empty Throughput
	if empty.AcceptedRatio() != 1 {
		t.Fatal("empty throughput ratio should be 1")
	}
	if empty.Mbps(0) != 0 {
		t.Fatal("zero elapsed should give 0 Mbps")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector(4, 2, 1000)
	c.PacketInjected(1024)
	c.PacketDelivered(2, 1024, 500, 100)
	c.QueueWait(0, 42, 100)
	if c.Latency.Global() != 500 {
		t.Fatal("collector latency wrong")
	}
	if c.Throughput.AcceptedRatio() != 1 {
		t.Fatal("collector throughput wrong")
	}
	if c.Contention.Avg(0) != 42 {
		t.Fatal("collector contention wrong")
	}
	if len(c.GlobalSeries.Samples()) != 1 {
		t.Fatal("global series not recording")
	}
}

// Property: Series mean over all samples weighted by N equals the plain mean.
func TestSeriesPreservesMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSeries(50)
		sum := 0.0
		for i, v := range vals {
			s.Add(sim.Time(i*13), float64(v))
			sum += float64(v)
		}
		var wsum float64
		var n int64
		for _, smp := range s.Samples() {
			wsum += smp.Avg * float64(smp.N)
			n += smp.N
		}
		if n != int64(len(vals)) {
			return false
		}
		return math.Abs(wsum-sum) < 1e-6*(sum+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Peak tie-breaking: equal averages keep the lowest-numbered router, and
// routers that saw only zero waits still count as observed.
func TestContentionPeakTieBreaking(t *testing.T) {
	c := NewContention(4, 0)
	c.Observe(1, 200, 0)
	c.Observe(3, 200, 1) // same mean as router 1
	if r, avg := c.Peak(); r != 1 || avg != 200 {
		t.Fatalf("tied Peak = (%d, %v), want first router (1, 200)", r, avg)
	}

	z := NewContention(3, 0)
	z.Observe(2, 0, 0) // a wait of zero is still an observation
	if r, avg := z.Peak(); r != 2 || avg != 0 {
		t.Fatalf("all-zero-waits Peak = (%d, %v), want (2, 0)", r, avg)
	}
}

// A sample landing exactly on a window's end time belongs to the next
// window (windows are [start, end) half-open), and Samples() reports the
// still-open window without disturbing accumulation.
func TestSeriesAddOnWindowBoundary(t *testing.T) {
	s := NewSeries(100)
	s.Add(10, 4)
	s.Add(100, 6) // exactly at the first window's end: must open [100,200)
	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("got %d samples: %+v", len(got), got)
	}
	if got[0].At != 100 || got[0].Avg != 4 || got[0].N != 1 {
		t.Fatalf("closed window: %+v", got[0])
	}
	if got[1].At != 200 || got[1].Avg != 6 || got[1].N != 1 {
		t.Fatalf("open window: %+v", got[1])
	}
	// Reading the open window must not close it: more samples keep folding
	// into the same window and the view stays consistent.
	s.Add(150, 8)
	got = s.Samples()
	if len(got) != 2 || got[1].Avg != 7 || got[1].N != 2 {
		t.Fatalf("open window after more samples: %+v", got)
	}
}

// Under fault injection the fabric loses packets; the accepted ratio must
// reflect only actual deliveries — dropped and unreachable traffic can
// never inflate it.
func TestThroughputFaultAccounting(t *testing.T) {
	var tp Throughput
	for i := 0; i < 8; i++ {
		tp.Inject(1024)
	}
	tp.Deliver(1024)
	tp.Deliver(1024)
	tp.Drop(1024)
	tp.Drop(1024)
	tp.Drop(1024)
	tp.Unreachable() // refused at the source: never offered as a packet
	if tp.OfferedPkts != 8 || tp.AcceptedPkts != 2 {
		t.Fatalf("offered/accepted = %d/%d", tp.OfferedPkts, tp.AcceptedPkts)
	}
	if r := tp.AcceptedRatio(); r != 0.25 {
		t.Fatalf("AcceptedRatio = %v, want 0.25 (drops and unreachables excluded)", r)
	}
	if tp.DroppedPkts != 3 || tp.DroppedBytes != 3*1024 {
		t.Fatalf("drop accounting = %d pkts / %d bytes", tp.DroppedPkts, tp.DroppedBytes)
	}
	if tp.UnreachableMsgs != 1 {
		t.Fatalf("UnreachableMsgs = %d", tp.UnreachableMsgs)
	}
	// Mbps is over accepted bytes only, and guards degenerate elapsed times.
	if got := tp.Mbps(sim.Millisecond); math.Abs(got-16.384) > 1e-9 {
		t.Fatalf("Mbps = %v, want 16.384 (accepted bytes only)", got)
	}
	if tp.Mbps(0) != 0 || tp.Mbps(-sim.Second) != 0 {
		t.Fatal("non-positive elapsed must yield 0 Mbps")
	}
}
