package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func(*Engine) { got = append(got, at) })
	}
	e.Run(Infinity)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("want 5 events, got %d", len(got))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func(*Engine) { got = append(got, i) })
	}
	e.Run(Infinity)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d has %d", i, v)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func(e *Engine) {
		if e.Now() != 100 {
			t.Errorf("Now() = %v inside event at 100", e.Now())
		}
		e.After(50, func(e *Engine) {
			if e.Now() != 150 {
				t.Errorf("Now() = %v, want 150", e.Now())
			}
		})
	})
	e.Run(Infinity)
	if e.Now() != 150 {
		t.Fatalf("final Now() = %v, want 150", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func(*Engine) {})
	})
	e.Run(Infinity)
}

func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(*Engine) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func(*Engine) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run(Infinity)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(10, func(*Engine) {})
	e.Run(Infinity)
	if e.Cancel(id) {
		t.Fatal("Cancel of already-fired event returned true")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func(*Engine) { fired = append(fired, at) })
	}
	n := e.Run(30) // exclusive horizon: 30 must not fire
	if n != 2 || len(fired) != 2 {
		t.Fatalf("Run(30) executed %d events (%v), want 2", n, fired)
	}
	e.Run(Infinity)
	if len(fired) != 4 {
		t.Fatalf("RunAll did not finish the rest: %v", fired)
	}
}

// Property: any batch of scheduled events fires in nondecreasing time order
// and all non-cancelled events fire exactly once.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func(*Engine) { fired = append(fired, at) })
		}
		e.Run(Infinity)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	s1 := r.Split(1)
	r2 := NewRNG(1)
	_ = r2.Split(1)
	s2next := r2.Split(2)
	if s1.Uint64() == s2next.Uint64() {
		t.Fatal("splits with different labels look correlated")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) heavily skewed: value %d drawn %d/70000", v, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("Exp(50) sample mean %v too far from 50", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Nanosecond).String(); got != "1.500us" {
		t.Fatalf("Time.String() = %q", got)
	}
	if (2 * Microsecond).Seconds() != 2e-6 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Fatal("Micros conversion wrong")
	}
}

// A fired event's record may be recycled for a new event; a stale EventID
// from its previous life must never cancel the new occupant.
func TestStaleEventIDCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func(*Engine) {})
	e.Run(Infinity) // fires and recycles the record
	fired := false
	fresh := e.Schedule(5, func(*Engine) { fired = true })
	if e.Cancel(stale) {
		t.Fatal("stale ID cancelled something")
	}
	e.Run(Infinity)
	if !fired {
		t.Fatal("recycled event was suppressed by a stale ID")
	}
	if e.Cancel(fresh) {
		t.Fatal("Cancel after fire returned true")
	}
}

// Recycling must not disturb ordering or counts under heavy scheduling.
func TestRecyclingStress(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func(e *Engine)
	chain = func(eng *Engine) {
		count++
		if count < 5000 {
			eng.After(Time(count%7), chain)
		}
	}
	e.Schedule(0, chain)
	e.Run(Infinity)
	if count != 5000 {
		t.Fatalf("chain ran %d times", count)
	}
}
