package runner

import (
	"encoding/binary"
	"math"
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
	for _, c := range []struct {
		name    string
		burst   func(*BurstSpec)
		pattern func(*PatternSpec)
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
			} else {
				spec := pattern
				c.pattern(&spec)
				err = s.InstallPattern(spec)
			}
			if c.name == "burst/valid" || c.name == "pattern/valid" {
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
