package trace

import (
	"fmt"

	"prdrb/internal/collectives"
)

// lowerWith lowers collective k over every rank along schedule s, for the
// collectives no Builder method emits: s is memoised as k's lowering, which
// lower then finds.
func (b *Builder) lowerWith(k schedKey, s *collectives.Schedule) {
	if b.memo == nil {
		b.memo = make(map[schedKey]*lowering)
	}
	b.memo[k] = &lowering{s: s}
	b.mustLower(k)
}

// ProgramBytes is the storage the encoded programs of every rank take.
func (t *Trace) ProgramBytes() int {
	n := 0
	for _, p := range t.progs {
		n += len(p)
	}
	return n
}

// appendRaw appends raw bytes to rank's program as one more event, for
// records no Builder writes (an unknown op) in the tests of Validate.
func (t *Trace) appendRaw(rank int, rec ...byte) {
	t.progs[rank] = append(t.progs[rank], rec...)
	t.events++
	t.checked = false
}

// diffPrograms compares two traces' programs event by event through their
// cursors and describes the first difference, "" when there is none.
func diffPrograms(a, b *Trace) string {
	if a.Ranks != b.Ranks || a.TotalEvents() != b.TotalEvents() {
		return fmt.Sprintf("%d ranks and %d events vs %d and %d", a.Ranks, a.TotalEvents(), b.Ranks, b.TotalEvents())
	}
	for r := 0; r < a.Ranks; r++ {
		ca, cb := a.Cursor(r), b.Cursor(r)
		for {
			ea, oka := ca.Next()
			eb, okb := cb.Next()
			if oka != okb || ea != eb {
				return fmt.Sprintf("rank %d pc %d: %+v (%v) vs %+v (%v)", r, ca.PC()-1, ea, oka, eb, okb)
			}
			if !oka {
				break
			}
		}
	}
	return ""
}
