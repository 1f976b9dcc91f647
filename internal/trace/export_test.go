package trace

import "prdrb/internal/sim"

// FinishTimes returns when each rank finished, for the oracle tests.
func (r *Replay) FinishTimes() []sim.Time {
	out := make([]sim.Time, len(r.ranks))
	for i := range r.ranks {
		out[i] = r.ranks[i].finishedAt
	}
	return out
}

// FinishTimes returns when each rank finished, for the oracle tests.
func (r *GoalReplay) FinishTimes() []sim.Time {
	out := make([]sim.Time, len(r.ranks))
	for i, rs := range r.ranks {
		out[i] = rs.finishedAt
	}
	return out
}
