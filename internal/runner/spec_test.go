package runner

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func newSpecSim() *Sim {
	return MustNew(Experiment{Topology: topology.NewKAryNTree(4, 2), Seed: 1})
}

// TestHostileTrafficSpecs: each spec below once panicked inside traffic
// or sim, or installed and then never let Execute return (a spacing that
// rounds to 0). Each must now come back as an error with nothing
// installed; the unmodified specs install and run to the end.
func TestHostileTrafficSpecs(t *testing.T) {
	us := sim.Microsecond
	burst := BurstSpec{Pattern: "shuffle", RateMbps: 400, Len: 50 * us, Gap: 50 * us, Count: 3}
	pattern := PatternSpec{Pattern: "shuffle", RateMbps: 400, End: 100 * us}
	heavy := HeavyTailSpec{CDF: "cache", Pattern: "grouplocal", PLocal: 0.7, LoadMbps: 400, OnMean: 50 * us, End: 100 * us}
	for _, c := range []struct {
		name    string
		burst   func(*BurstSpec)
		pattern func(*PatternSpec)
		heavy   func(*HeavyTailSpec)
		late    bool // install once a longer pattern has moved the clock
	}{
		{name: "burst/valid", burst: func(*BurstSpec) {}},
		{name: "burst/len-0", burst: func(b *BurstSpec) { b.Len = 0 }},
		{name: "burst/rate-0", burst: func(b *BurstSpec) { b.RateMbps = 0 }},
		{name: "burst/rate-nan", burst: func(b *BurstSpec) { b.RateMbps = math.NaN() }},
		{name: "burst/rate-inf", burst: func(b *BurstSpec) { b.RateMbps = math.Inf(1) }},
		{name: "burst/rate-negative", burst: func(b *BurstSpec) { b.RateMbps = -400 }},
		{name: "burst/rate-tiny", burst: func(b *BurstSpec) { b.RateMbps = 1e-300 }},
		{name: "burst/start-negative", burst: func(b *BurstSpec) { b.Start = -us }},
		{name: "burst/gap-negative", burst: func(b *BurstSpec) { b.Len, b.Gap = 10*us, -20*us }},
		{name: "burst/count-0", burst: func(b *BurstSpec) { b.Count = 0 }},
		{name: "burst/count-negative", burst: func(b *BurstSpec) { b.Count = -1 }},
		{name: "burst/count-huge", burst: func(b *BurstSpec) { b.Count = 1<<20 + 1 }},
		{name: "burst/end-overflows", burst: func(b *BurstSpec) { b.Len, b.Gap, b.Count = 1<<41, 1<<41, 1<<20 }},
		{name: "burst/len-overflows", burst: func(b *BurstSpec) { b.Len, b.Gap = math.MaxInt64, math.MaxInt64 }},
		{name: "burst/before-clock", burst: func(*BurstSpec) {}, late: true},
		{name: "pattern/valid", pattern: func(*PatternSpec) {}},
		{name: "pattern/empty-window", pattern: func(p *PatternSpec) { p.Start, p.End = 100*us, 100*us }},
		{name: "pattern/reversed-window", pattern: func(p *PatternSpec) { p.Start, p.End = 100*us, 50*us }},
		{name: "pattern/rate-negative", pattern: func(p *PatternSpec) { p.RateMbps = -1 }},
		{name: "pattern/rate-tiny", pattern: func(p *PatternSpec) { p.RateMbps = 1e-300 }},
		{name: "pattern/rate-inf", pattern: func(p *PatternSpec) { p.RateMbps = math.Inf(1) }},
		{name: "pattern/rate-nan", pattern: func(p *PatternSpec) { p.RateMbps = math.NaN() }},
		{name: "pattern/packet-negative", pattern: func(p *PatternSpec) { p.PacketBytes = -8 }},
		{name: "pattern/start-negative", pattern: func(p *PatternSpec) { p.Start = -us }},
		{name: "pattern/end-huge", pattern: func(p *PatternSpec) { p.End = math.MaxInt64 }},
		{name: "pattern/node-outside", pattern: func(p *PatternSpec) { p.Nodes = []topology.NodeID{3, 16} }},
		{name: "pattern/before-clock", pattern: func(*PatternSpec) {}, late: true},
		{name: "heavy/valid", heavy: func(*HeavyTailSpec) {}},
		{name: "heavy/plocal-above", heavy: func(h *HeavyTailSpec) { h.PLocal = 2 }},
		{name: "heavy/plocal-negative", heavy: func(h *HeavyTailSpec) { h.PLocal = -0.5 }},
		{name: "heavy/plocal-nan", heavy: func(h *HeavyTailSpec) { h.PLocal = math.NaN() }},
		{name: "heavy/group-1", heavy: func(h *HeavyTailSpec) { h.GroupSize = 1 }},
		{name: "heavy/group-nodes", heavy: func(h *HeavyTailSpec) { h.GroupSize = 16 }},
		{name: "heavy/group-negative", heavy: func(h *HeavyTailSpec) { h.GroupSize = -3 }},
		{name: "heavy/load-0", heavy: func(h *HeavyTailSpec) { h.LoadMbps = 0 }},
		{name: "heavy/load-nan", heavy: func(h *HeavyTailSpec) { h.LoadMbps = math.NaN() }},
		{name: "heavy/load-inf", heavy: func(h *HeavyTailSpec) { h.LoadMbps = math.Inf(1) }},
		{name: "heavy/load-tiny", heavy: func(h *HeavyTailSpec) { h.LoadMbps = 1e-300 }},
		{name: "heavy/on-0", heavy: func(h *HeavyTailSpec) { h.OnMean = 0 }},
		{name: "heavy/on-huge", heavy: func(h *HeavyTailSpec) { h.OnMean = math.MaxInt64 }},
		{name: "heavy/off-negative", heavy: func(h *HeavyTailSpec) { h.OffMean = -us }},
		{name: "heavy/maxflow-negative", heavy: func(h *HeavyTailSpec) { h.MaxFlowBytes = -1 }},
		{name: "heavy/empty-window", heavy: func(h *HeavyTailSpec) { h.End = 0 }},
		{name: "heavy/before-clock", heavy: func(*HeavyTailSpec) {}, late: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newSpecSim()
			if c.late {
				if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 400, End: 300 * us}); err != nil {
					t.Fatal(err)
				}
				s.Execute(200 * us)
			}
			pending := s.Eng.Len()
			var err error
			if c.burst != nil {
				spec := burst
				c.burst(&spec)
				_, err = s.InstallBursts(spec)
				if err == nil && spec.Count > 0 {
					// The variable-pattern entry point shares the checks:
					// a hostile spec in any position is refused.
					_, err = s.InstallVariableBursts([]BurstSpec{spec, burst}, spec.Count)
				}
			} else if c.pattern != nil {
				spec := pattern
				c.pattern(&spec)
				err = s.InstallPattern(spec)
			} else {
				spec := heavy
				c.heavy(&spec)
				err = s.InstallHeavyTail(spec)
			}
			if strings.HasSuffix(c.name, "/valid") {
				if err != nil {
					t.Fatal(err)
				}
				if res := s.Execute(sim.Second); res.DeliveredPkts == 0 {
					t.Fatal("the valid spec delivered nothing")
				}
				return
			}
			if err == nil {
				t.Fatal("hostile spec installed without an error")
			}
			if n := s.Eng.Len(); n != pending {
				t.Fatalf("a refused spec left %d events pending, %d before", n, pending)
			}
		})
	}
	// A hostile spec later in a variable-burst cycle is refused too.
	s := newSpecSim()
	bad := burst
	bad.RateMbps = math.Inf(1)
	if _, err := s.InstallVariableBursts([]BurstSpec{burst, bad}, 4); err == nil {
		t.Fatal("a hostile second burst spec installed without an error")
	}
}

// TestHostileExperiments: a negative congestion window was silently
// replaced by the 10µs default. New refuses it; 0 still selects the
// default.
func TestHostileExperiments(t *testing.T) {
	for _, c := range []struct {
		name string
		exp  Experiment
		ok   bool
	}{
		{"congestion-window-default", Experiment{Congestion: true}, true},
		{"congestion-window-negative", Experiment{Congestion: true, CongestionWindow: -sim.Microsecond}, false},
		{"congestion-window-negative-off", Experiment{CongestionWindow: -1}, false},
	} {
		s, err := New(c.exp)
		if c.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && s.Exp.CongestionWindow != defaultCongestionWindow {
			t.Errorf("%s: window %v, want the default %v", c.name, s.Exp.CongestionWindow, defaultCongestionWindow)
		}
	}
}

// decodeBurstSpec reads a BurstSpec from fuzz input: a pattern selector,
// the rate as raw float64 bits (so NaN and the infinities occur), Len, Gap
// and Start as raw int64s, a 16-bit count (the count cap itself is
// TestHostileTrafficSpecs'; a fuzzed million-burst train would only cost
// memory) and a pattern-space size. Short input reads as zeros.
func decodeBurstSpec(data []byte) BurstSpec {
	var b [43]byte
	copy(b[:], data)
	patterns := []string{"shuffle", "uniform", "bitreversal", "transpose", "nonesuch"}
	le := binary.LittleEndian
	return BurstSpec{
		Pattern:      patterns[int(b[0])%len(patterns)],
		RateMbps:     math.Float64frombits(le.Uint64(b[1:])),
		Len:          sim.Time(le.Uint64(b[9:])),
		Gap:          sim.Time(le.Uint64(b[17:])),
		Start:        sim.Time(le.Uint64(b[25:])),
		Count:        int(int16(le.Uint16(b[33:]))),
		PatternNodes: int(b[35]) % 40,
	}
}

func encodeBurstSpec(s BurstSpec, pattern byte) []byte {
	b := make([]byte, 43)
	le := binary.LittleEndian
	b[0] = pattern
	le.PutUint64(b[1:], math.Float64bits(s.RateMbps))
	le.PutUint64(b[9:], uint64(s.Len))
	le.PutUint64(b[17:], uint64(s.Gap))
	le.PutUint64(b[25:], uint64(s.Start))
	le.PutUint16(b[33:], uint16(int16(s.Count)))
	b[35] = byte(s.PatternNodes)
	return b
}

// FuzzBurstSpec installs a decoded BurstSpec on a 16-node fat tree and, if
// it is accepted, executes its first 5 us under a wall-clock deadline. The
// outcome must be an error or a finished run, never a panic or a hang.
func FuzzBurstSpec(f *testing.F) {
	us := sim.Microsecond
	for _, s := range []BurstSpec{
		{RateMbps: 400, Len: 50 * us, Gap: 50 * us, Count: 3},
		{RateMbps: 0, Len: 50 * us, Count: 3},
		{RateMbps: math.NaN(), Len: 50 * us, Count: 3},
		{RateMbps: math.Inf(1), Len: 50 * us, Count: 3},
		{RateMbps: 400, Len: 0, Count: 3},
		{RateMbps: 400, Len: 10 * us, Gap: -20 * us, Count: 3},
		{RateMbps: 400, Len: 10 * us, Start: -us, Count: 3},
		{RateMbps: 400, Len: 1 << 62, Gap: 1 << 62, Count: 30000},
		{RateMbps: 8e6, Len: 3 * us, Count: 2},
	} {
		f.Add(encodeBurstSpec(s, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeBurstSpec(data)
		s := newSpecSim()
		if _, err := s.InstallBursts(spec); err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Execute(spec.Start + 5*us)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%+v: Execute of an accepted spec did not return", spec)
		}
	})
}

// decodeHeavyTailSpec reads a HeavyTailSpec from fuzz input: CDF and
// pattern selectors, a 16-bit group size, PLocal and the load as raw
// float64 bits, OnMean, OffMean, Start and End as raw int64s and a 16-bit
// flow cap. Short input reads as zeros.
func decodeHeavyTailSpec(data []byte) HeavyTailSpec {
	var b [54]byte
	copy(b[:], data)
	cdfs := []string{"websearch", "datamining", "cache", "nonesuch"}
	patterns := []string{"", "uniform", "grouplocal", "nonesuch"}
	le := binary.LittleEndian
	return HeavyTailSpec{
		CDF:          cdfs[int(b[0])%len(cdfs)],
		Pattern:      patterns[int(b[1])%len(patterns)],
		GroupSize:    int(int16(le.Uint16(b[2:]))),
		PLocal:       math.Float64frombits(le.Uint64(b[4:])),
		LoadMbps:     math.Float64frombits(le.Uint64(b[12:])),
		OnMean:       sim.Time(le.Uint64(b[20:])),
		OffMean:      sim.Time(le.Uint64(b[28:])),
		Start:        sim.Time(le.Uint64(b[36:])),
		End:          sim.Time(le.Uint64(b[44:])),
		MaxFlowBytes: int(int16(le.Uint16(b[52:]))),
	}
}

func encodeHeavyTailSpec(h HeavyTailSpec, cdf, pattern byte) []byte {
	b := make([]byte, 54)
	le := binary.LittleEndian
	b[0], b[1] = cdf, pattern
	le.PutUint16(b[2:], uint16(int16(h.GroupSize)))
	le.PutUint64(b[4:], math.Float64bits(h.PLocal))
	le.PutUint64(b[12:], math.Float64bits(h.LoadMbps))
	le.PutUint64(b[20:], uint64(h.OnMean))
	le.PutUint64(b[28:], uint64(h.OffMean))
	le.PutUint64(b[36:], uint64(h.Start))
	le.PutUint64(b[44:], uint64(h.End))
	le.PutUint16(b[52:], uint16(int16(h.MaxFlowBytes)))
	return b
}

// FuzzHeavyTailSpec installs a decoded HeavyTailSpec on a 16-node fat tree
// and, if it is accepted, executes its first microsecond under a wall-clock
// deadline. The outcome must be an error or a finished run, never a panic
// or a hang. The NIC fragments a flow into packets as it starts, so only
// capped flows at up to 100 Gbps a node are executed: larger ones would
// hold gigabytes of packets, which is the load asked for, not a defect.
func FuzzHeavyTailSpec(f *testing.F) {
	us := sim.Microsecond
	for _, h := range []HeavyTailSpec{
		{PLocal: 0.7, LoadMbps: 400, OnMean: 50 * us, End: 100 * us, MaxFlowBytes: 16384},
		{PLocal: 2, LoadMbps: 400, OnMean: 50 * us, End: 100 * us},
		{GroupSize: 1, LoadMbps: 400, OnMean: 50 * us, End: 100 * us},
		{PLocal: 0.5, LoadMbps: math.NaN(), OnMean: 50 * us, End: 100 * us},
		{PLocal: 0.5, LoadMbps: math.Inf(1), OnMean: 50 * us, End: 100 * us},
		{PLocal: 0.5, LoadMbps: 1e-300, OnMean: 50 * us, End: 100 * us},
		{PLocal: 0.5, LoadMbps: 400, OnMean: 1, OffMean: 1, End: 100 * us, MaxFlowBytes: 512},
		{PLocal: 0.5, LoadMbps: 400, OnMean: 1 << 54, OffMean: 1 << 54, End: 1 << 61, MaxFlowBytes: 512},
	} {
		f.Add(encodeHeavyTailSpec(h, 2, 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeHeavyTailSpec(data)
		s := newSpecSim()
		if err := s.InstallHeavyTail(spec); err != nil || spec.LoadMbps > 1e5 || spec.MaxFlowBytes == 0 {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Execute(spec.Start + us)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%+v: Execute of an accepted spec did not return", spec)
		}
	})
}
