package trace

import "fmt"

// ProgramBytes is the storage the encoded programs of every rank and the
// call store take.
func (t *Trace) ProgramBytes() int {
	n := 0
	for _, p := range append(t.progs[:len(t.progs):len(t.progs)], t.calls...) {
		n += len(p)
	}
	return n
}

// CallRuns is the number of runs in the call store: one per rank of each
// full-communicator collective the trace's builder lowered.
func (t *Trace) CallRuns() int { return len(t.calls) }

// CallRecords counts the call records in the programs of every rank.
func (t *Trace) CallRecords() int {
	n := 0
	for r := range t.progs {
		c := t.Cursor(r)
		for ok := true; ok; _, ok = c.Next() {
			next := c.prog // the record Next reads next
			if len(next) == 0 {
				next = c.ret
			}
			if len(next) > 0 && next[0] == opCall {
				n++
			}
		}
	}
	return n
}

// DiffPrograms is diffPrograms for the external tests.
var DiffPrograms = diffPrograms

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
