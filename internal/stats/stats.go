// Package stats implements the statistical method of thesis §4.3: every
// experiment runs under several RNG seeds and reports the averaged result
// with a confidence interval, avoiding single-run anomalies.
package stats

import (
	"fmt"
	"math"
)

// Seeds derives n deterministic seeds from a base (SplitMix64 step), so an
// experiment's seed list is reproducible from one number.
func Seeds(n int, base uint64) []uint64 {
	out := make([]uint64, n)
	x := base
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = z ^ (z >> 31)
	}
	return out
}

// Summary is a multi-seed measurement: mean and 95% confidence
// half-interval (Student-t on n-1 degrees of freedom).
type Summary struct {
	Mean float64
	CI95 float64
	N    int
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..10
// degrees of freedom. Experiment sweeps run 3-10 seeds, where the normal
// 1.96 understates the interval badly (at n=3 the true factor is 4.3).
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
}

// TCrit95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom, falling back to the normal 1.96 asymptote
// beyond the table.
func TCrit95(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	if dof <= len(tCrit95) {
		return tCrit95[dof-1]
	}
	return 1.96
}

// Summarize folds raw per-seed values into a Summary.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	for _, v := range values {
		s.Mean += v
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.CI95 = TCrit95(s.N-1) * math.Sqrt(ss/float64(s.N-1)) / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± ci".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}

// GainPct returns the relative reduction of measured vs baseline in
// percent: 100 * (baseline - measured) / baseline. Positive = improvement.
// This is how the paper states every latency/execution-time gain.
func GainPct(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - measured) / baseline
}
