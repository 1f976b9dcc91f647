package trace_test

import (
	"bytes"
	"testing"

	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

// TestCallsMatchRoundTrip: every generator's trace, whose full-communicator
// collectives are call records into the call store, reads event for event
// as its WriteTrace→ReadTrace round trip, which stores every event inline.
// Where a collective repeats, the trace stores fewer bytes than the round
// trip; where each is lowered once, its call records are all it adds, at
// most 3 B each.
func TestCallsMatchRoundTrip(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, iters := range []int{1, 3, 20} {
			tr, err := workloads.ByName(name, workloads.Options{Iterations: iters})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			flat, err := trace.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if d := trace.DiffPrograms(tr, flat); d != "" {
				t.Fatalf("%s/%d: calls and inline records differ: %s", name, iters, d)
			}
			if flat.CallRuns() != 0 {
				t.Fatalf("%s/%d: ReadTrace stored %d runs in the call store", name, iters, flat.CallRuns())
			}
			got, inline, calls := tr.ProgramBytes(), flat.ProgramBytes(), tr.CallRecords()
			t.Logf("%-16s %2d iterations: %7d B with %4d calls into %3d runs, %7d B inline", name, iters, got, calls, tr.CallRuns(), inline)
			if calls > tr.CallRuns() && got >= inline || calls <= tr.CallRuns() && got > inline+3*calls {
				t.Errorf("%s/%d: %d B with %d calls into %d runs, %d B inline", name, iters, got, calls, tr.CallRuns(), inline)
			}
		}
	}
}
