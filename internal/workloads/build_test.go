package workloads

import (
	"reflect"
	"testing"

	"prdrb/internal/trace"
)

// TestBuildMatchesAppend: the exactly sized two-pass trace every generator
// returns is the trace the same body emits through the plain appending
// builder — the same events, compared one by one through the cursors,
// with the same call mix and name.
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
			if got.TotalEvents() != want.TotalEvents() {
				t.Fatalf("%s/%d: %d events, appended %d", name, iters, got.TotalEvents(), want.TotalEvents())
			}
			for r := 0; r < got.Ranks; r++ {
				cg, cw := got.Cursor(r), want.Cursor(r)
				for {
					eg, okg := cg.Next()
					ew, okw := cw.Next()
					if eg != ew || okg != okw {
						t.Fatalf("%s/%d: rank %d pc %d: built %+v, appended %+v", name, iters, r, cg.PC()-1, eg, ew)
					}
					if !okg {
						break
					}
				}
				if cg.PC() == 0 {
					t.Fatalf("%s/%d: rank %d has no events", name, iters, r)
				}
			}
		}
	}
}

// TestGenerateAllocs pins what generating a trace allocates: the trace's
// one program array and the handful of collective schedules the workload
// uses, each lowered once however many iterations repeat it — not one
// growing slice per rank and one schedule per collective call (25,344
// mallocs for this trace before). So the malloc count does not grow with
// the iterations: 10 and 20 lower the same schedules (pop's first Barrier
// comes at iteration 6, its first Bcast at 10) and must cost the same, up
// to a few mallocs of the runtime's own.
func TestGenerateAllocs(t *testing.T) {
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ByName("pop", Options{Iterations: iters}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a20 := allocs(20)
	t.Logf("pop, 20 iterations: %.0f mallocs", a20)
	if a20 > 2000 {
		t.Fatalf("generating pop at 20 iterations took %.0f mallocs, want <= 2000", a20)
	}
	if a10 := allocs(10); a20 > a10+5 {
		t.Fatalf("generating pop took %.0f mallocs at 10 iterations but %.0f at 20", a10, a20)
	}
}
