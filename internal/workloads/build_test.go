package workloads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prdrb/internal/trace"
)

// diffInline builds g's trace through trace.Build, where each Block runs
// its body once and every use calls the stored records, and through the
// plain appending builder, which runs every block inline, and describes
// the first difference in name, ranks, call mix, event count or decoded
// events rank by rank; "" when there is none.
func diffInline(g generator) (string, error) {
	got, err := trace.Build(g.name, g.ranks, g.emit)
	if err != nil {
		return "", err
	}
	b := trace.NewBuilder(g.name, g.ranks)
	if err := g.emit(b); err != nil {
		return "", err
	}
	want := b.Build()
	if got.Name != want.Name || got.Ranks != want.Ranks {
		return fmt.Sprintf("%s: built %q with %d ranks, inline %q with %d", g.name, got.Name, got.Ranks, want.Name, want.Ranks), nil
	}
	if !reflect.DeepEqual(got.CallMix, want.CallMix) {
		return fmt.Sprintf("%s: call mix %v, inline %v", g.name, got.CallMix, want.CallMix), nil
	}
	if got.TotalEvents() != want.TotalEvents() {
		return fmt.Sprintf("%s: %d events, inline %d", g.name, got.TotalEvents(), want.TotalEvents()), nil
	}
	for r := 0; r < got.Ranks; r++ {
		cg, cw := got.Cursor(r), want.Cursor(r)
		for {
			eg, okg := cg.Next()
			ew, okw := cw.Next()
			if eg != ew || okg != okw {
				return fmt.Sprintf("%s: rank %d pc %d: built %+v, inline %+v", g.name, r, cg.PC()-1, eg, ew), nil
			}
			if !okg {
				break
			}
		}
		if cg.PC() == 0 {
			return fmt.Sprintf("%s: rank %d has no events", g.name, r), nil
		}
	}
	return "", nil
}

// TestBuildMatchesAppend: the exactly sized two-pass trace every generator
// returns, its repeated point-to-point blocks and collectives stored once
// and called, is the trace the same body emits through the plain
// appending builder with every block run inline — the same events,
// compared one by one through the cursors, with the same call mix, event
// count and name.
func TestBuildMatchesAppend(t *testing.T) {
	for _, name := range Names() {
		for _, iters := range []int{1, 3, 20} {
			g, err := byName(name, Options{Iterations: iters})
			if err != nil {
				t.Fatal(err)
			}
			d, err := diffInline(g)
			if err != nil {
				t.Fatal(err)
			}
			if d != "" {
				t.Fatalf("%d iterations: %s", iters, d)
			}
		}
	}
}

// TestBlockKeyCollisionDetected: a generator that opens two different
// bodies under one key gets the first body's events at both uses when
// built, so the comparison with the inline trace fails, naming it.
func TestBlockKeyCollisionDetected(t *testing.T) {
	g := generator{name: "collision", ranks: 4, emit: func(b *trace.Builder) error {
		trace.Block(b, "halo", func() { b.Send(0, 1, 64); b.Recv(1, 0) })
		trace.Block(b, "halo", func() { b.Send(2, 3, 64); b.Recv(3, 2) })
		return nil
	}}
	d, err := diffInline(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d, "collision: ") {
		t.Fatalf("a key collision went unnoticed: %q", d)
	}
	t.Log(d)
}

// TestBlockRefusesCollectivesAndNesting: a collective or a block inside a
// block panics, naming the block's key, in Build and on a plain builder.
func TestBlockRefusesCollectivesAndNesting(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(b *trace.Builder)
		want string
	}{
		{"collective", func(b *trace.Builder) {
			trace.Block(b, "sweep", func() { b.Compute(0, 5); b.Allreduce(64) })
		}, "trace: allreduce collective inside block sweep"},
		{"group collective", func(b *trace.Builder) {
			trace.Block(b, [2]int{1, 64}, func() {
				if err := b.AllreduceGroup([]int{0, 1}, "ring", 64); err != nil {
					panic(err)
				}
			})
		}, "trace: allreduce collective inside block [1 64]"},
		{"nested block", func(b *trace.Builder) {
			trace.Block(b, "outer", func() { trace.Block(b, "inner", func() { b.Compute(0, 5) }) })
		}, "trace: block inner opened inside block outer"},
		{"nested memoised block", func(b *trace.Builder) {
			trace.Block(b, "inner", func() { b.Compute(0, 5) })
			trace.Block(b, "outer", func() { trace.Block(b, "inner", func() { b.Compute(0, 5) }) })
		}, "trace: block inner opened inside block outer"},
	} {
		for _, how := range []string{"Build", "NewBuilder"} {
			t.Run(c.name+"/"+how, func(t *testing.T) {
				defer func() {
					if p := fmt.Sprint(recover()); p != c.want {
						t.Fatalf("panic %q, want %q", p, c.want)
					}
				}()
				if how == "Build" {
					trace.Build("refuse", 4, func(b *trace.Builder) error { c.body(b); return nil })
				} else {
					c.body(trace.NewBuilder("refuse", 4))
				}
			})
		}
	}
}

// TestGenerateAllocs pins what generating a trace allocates: the trace's
// one program array, the handful of collective schedules and point-to-point
// blocks the workload uses, each lowered or captured once however many
// iterations repeat it — not one growing slice per rank and one schedule
// per collective call (25,344 mallocs for pop before). So the malloc count
// does not grow with the iterations: 10 and 20 use the same collectives and
// blocks (pop's first Barrier comes at iteration 6, its first Bcast at 10)
// and must cost the same, up to a few mallocs of the runtime's own.
func TestGenerateAllocs(t *testing.T) {
	for _, name := range goldenApps {
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := ByName(name, Options{Iterations: iters}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a10, a20 := allocs(10), allocs(20)
		t.Logf("%-12s %4.0f mallocs at 10 iterations, %4.0f at 20", name, a10, a20)
		if a20 > 100 {
			t.Errorf("generating %s at 20 iterations took %.0f mallocs, want <= 100", name, a20)
		}
		if a20 > a10+5 {
			t.Errorf("generating %s took %.0f mallocs at 10 iterations but %.0f at 20", name, a10, a20)
		}
	}
}
