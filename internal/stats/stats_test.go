package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(10, 42)
	b := Seeds(10, 42)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
		if seen[a[i]] {
			t.Fatal("duplicate seed")
		}
		seen[a[i]] = true
	}
	c := Seeds(10, 43)
	if a[0] == c[0] {
		t.Fatal("different bases gave same first seed")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30})
	if s.Mean != 20 || s.N != 3 || s.CI95 <= 0 {
		t.Fatalf("Summarize = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary wrong")
	}
	one := Summarize([]float64{5})
	if one.Mean != 5 || one.CI95 != 0 {
		t.Fatal("single-sample summary wrong")
	}
	if one.String() == "" {
		t.Fatal("empty render")
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		dof  int
		want float64
	}{
		{0, 0}, {1, 12.706}, {2, 4.303}, {4, 2.776}, {9, 2.262},
		{10, 2.228}, {11, 1.96}, {1000, 1.96},
	}
	for _, c := range cases {
		if got := TCrit95(c.dof); got != c.want {
			t.Fatalf("TCrit95(%d) = %v, want %v", c.dof, got, c.want)
		}
	}
	// Critical values must shrink monotonically toward the normal limit.
	for dof := 2; dof <= 11; dof++ {
		if TCrit95(dof) >= TCrit95(dof-1) {
			t.Fatalf("TCrit95 not decreasing at dof=%d", dof)
		}
	}
}

// The Student-t interval widens small samples relative to the old normal
// approximation: at n=2 the half-interval is t_1/1.96 ≈ 6.5x wider.
func TestSummarizeUsesStudentT(t *testing.T) {
	s := Summarize([]float64{10, 20})
	sd := math.Sqrt(50.0) // sample stddev of {10,20}
	want := 12.706 * sd / math.Sqrt(2)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, want)
	}
}

func TestGainPct(t *testing.T) {
	if GainPct(100, 80) != 20 {
		t.Fatal("20% gain wrong")
	}
	if GainPct(100, 120) != -20 {
		t.Fatal("negative gain wrong")
	}
	if GainPct(0, 5) != 0 {
		t.Fatal("zero baseline should give 0")
	}
}

// Property: the summary mean is bounded by min/max of the inputs.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		lo, hi := clean[0], clean[0]
		for _, v := range clean {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return s.Mean >= lo-1e-9 && s.Mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
