package workloads

import (
	"reflect"
	"testing"
	"unsafe"

	"prdrb/internal/trace"
)

// TestBuildMatchesAppend: the exactly sized two-pass trace every generator
// returns is the trace the same body emits through the plain appending
// builder (events, call mix, name), every rank's list is full to its
// capacity, and the lists are consecutive windows of one array.
func TestBuildMatchesAppend(t *testing.T) {
	for _, name := range Names() {
		for _, iters := range []int{1, 3} {
			opt := Options{Iterations: iters}
			got, err := ByName(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			g, err := byName(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			b := trace.NewBuilder(g.name, g.ranks)
			if err := g.emit(b); err != nil {
				t.Fatal(err)
			}
			want := b.Build()
			if got.Name != want.Name || got.Ranks != want.Ranks {
				t.Fatalf("%s/%d: built %q with %d ranks, appended %q with %d", name, iters, got.Name, got.Ranks, want.Name, want.Ranks)
			}
			if !reflect.DeepEqual(got.CallMix, want.CallMix) {
				t.Fatalf("%s/%d: call mix %v, appended %v", name, iters, got.CallMix, want.CallMix)
			}
			if !reflect.DeepEqual(got.Events, want.Events) {
				t.Fatalf("%s/%d: two-pass events differ from the appended ones", name, iters)
			}
			var next unsafe.Pointer
			for r, evs := range got.Events {
				if len(evs) == 0 {
					t.Fatalf("%s/%d: rank %d has no events", name, iters, r)
				}
				if cap(evs) != len(evs) {
					t.Fatalf("%s/%d: rank %d has %d events in room for %d", name, iters, r, len(evs), cap(evs))
				}
				if first := unsafe.Pointer(&evs[0]); r > 0 && first != next {
					t.Fatalf("%s/%d: rank %d's events do not follow rank %d's in one array", name, iters, r, r-1)
				}
				next = unsafe.Add(unsafe.Pointer(&evs[0]), len(evs)*int(unsafe.Sizeof(evs[0])))
			}
		}
	}
}

// TestGenerateAllocs pins what generating a trace allocates: the trace's
// one event array and the handful of collective schedules the workload
// uses, each lowered once however many iterations repeat it — not one
// growing slice per rank and one schedule per collective call (25,344
// mallocs for this trace before).
func TestGenerateAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ByName("pop", Options{Iterations: 20}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("pop, 20 iterations: %.0f mallocs", allocs)
	if allocs > 2000 {
		t.Fatalf("generating pop at 20 iterations took %.0f mallocs, want <= 2000", allocs)
	}
}
