package core

import "prdrb/internal/sim"

// Latency-trend prediction — the first "further work" line of thesis §5.2:
// "With enough historic latency values and traffic information, PR-DRB
// could predict future congestion before it actually arises. This trend
// analysis could greatly improve system performance."
//
// The predictor keeps a short ring of (time, L(MP)) samples per metapath
// and fits a least-squares line. When the line projects L(MP) crossing
// ThresholdHigh within TrendHorizon — while the zone is still M — the
// controller runs its M->H actions early (solution reuse or path opening),
// cutting the detection lag that both DRB and reactive PR-DRB share.

// trendSample is one historic metapath-latency observation.
type trendSample struct {
	at  sim.Time
	lat float64 // ns
}

// trendTracker is the per-metapath history ring.
type trendTracker struct {
	samples [trendCapacity]trendSample
	next    int
	full    bool
}

const trendCapacity = 16

func (tt *trendTracker) add(at sim.Time, lat float64) {
	tt.samples[tt.next] = trendSample{at: at, lat: lat}
	tt.next = (tt.next + 1) % trendCapacity
	if tt.next == 0 {
		tt.full = true
	}
}

// reset forgets the history.
func (tt *trendTracker) reset() { tt.next, tt.full = 0, false }

func (tt *trendTracker) count() int {
	if tt.full {
		return trendCapacity
	}
	return tt.next
}

// slope returns the least-squares dL/dt in ns-per-ns and the latest
// latency; ok is false with fewer than 4 samples or a degenerate span.
func (tt *trendTracker) slope() (slope, latest float64, ok bool) {
	n := tt.count()
	if n < 4 {
		return 0, 0, false
	}
	// Center times to keep the arithmetic well-conditioned.
	var sumT, sumL float64
	var newest trendSample
	for i := 0; i < n; i++ {
		s := tt.samples[i]
		sumT += float64(s.at)
		sumL += s.lat
		if s.at >= newest.at {
			newest = s
		}
	}
	meanT, meanL := sumT/float64(n), sumL/float64(n)
	var sxx, sxy float64
	for i := 0; i < n; i++ {
		s := tt.samples[i]
		dt := float64(s.at) - meanT
		sxx += dt * dt
		sxy += dt * (s.lat - meanL)
	}
	if sxx <= 0 {
		return 0, 0, false
	}
	return sxy / sxx, newest.lat, true
}

// predictsCongestion reports whether the trend projects latency crossing
// high within horizon ns.
func (tt *trendTracker) predictsCongestion(high float64, horizon sim.Time) bool {
	slope, latest, ok := tt.slope()
	if !ok || slope <= 0 || latest >= high {
		return false
	}
	// Time (ns) until the projected line reaches the threshold.
	eta := (high - latest) / slope
	return eta <= float64(horizon)
}

// observeTrend feeds the predictor after each ACK and fires the early
// reaction when enabled.
func (c *Controller) observeTrend(e *sim.Engine, mp *metapath) {
	cfg := &c.sh.cfg
	if cfg.TrendHorizon <= 0 {
		return
	}
	lat := mp.latency(float64(cfg.LatencyFloor))
	cd := c.sh.coldState(mp)
	if cd.trend == nil {
		cd.trend = new(trendTracker)
	}
	cd.trend.add(e.Now(), lat)
	if mp.zone == ZoneHigh {
		return // already reacting
	}
	if cd.trend.predictsCongestion(float64(cfg.ThresholdHigh), cfg.TrendHorizon) {
		c.Stats.TrendFirings++
		c.enterHigh(e, mp)
	}
}
