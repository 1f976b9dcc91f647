package main

import (
	"fmt"

	"prdrb"
)

// pool runs f(0) ... f(n-1) on up to ctx.procs goroutines and calls done
// on the calling goroutine as each item finishes, in
// completion order. A panic in f becomes that item's error, so one broken
// run fails its experiment or cell, not the process.
//
// Every simulation in this harness is single-threaded and fully
// determined by its Scenario (seed included), so fanning experiments,
// campaign cells and per-seed runs out across cores changes nothing
// observable.
func (ctx *runCtx) pool(n int, f func(i int) error, done func(i int, err error)) {
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f(i)
	}
	workers := min(ctx.procs, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			done(i, run(i))
		}
		return
	}
	type fin struct {
		i   int
		err error
	}
	idx, fins := make(chan int), make(chan fin)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				fins <- fin{i, run(i)}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
	}()
	for k := 0; k < n; k++ {
		r := <-fins
		done(r.i, r.err)
	}
}

// parMap runs f over items on the pool and returns the results in input
// order, or the first error in input order. Callers reduce the results in
// that order, which keeps floating-point sums, and so the reports,
// byte-identical to a serial run.
func parMap[T, R any](ctx *runCtx, items []T, f func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	ctx.pool(len(items), func(i int) (err error) {
		out[i], err = f(items[i])
		return err
	}, func(i int, err error) { errs[i] = err })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runAll runs the scenarios on the pool and returns their outcomes in
// order.
func runAll(ctx *runCtx, scs ...prdrb.Scenario) ([]prdrb.Outcome, error) {
	return parMap(ctx, scs, prdrb.Scenario.Run)
}

// seedMean runs scenario(p, seed) for every policy and harness seed and
// averages what vals reads from each seed's outcomes, which come in
// policy order. It also returns the last seed's outcomes.
func seedMean(ctx *runCtx, policies []prdrb.Policy, scenario func(p prdrb.Policy, seed uint64) prdrb.Scenario,
	vals func([]prdrb.Outcome) ([]float64, error)) ([]float64, []prdrb.Outcome, error) {
	var scs []prdrb.Scenario
	for _, seed := range ctx.seeds {
		for _, p := range policies {
			scs = append(scs, scenario(p, seed))
		}
	}
	outs, err := runAll(ctx, scs...)
	if err != nil {
		return nil, nil, err
	}
	per := len(policies)
	var vss [][]float64
	for i := 0; i < len(outs); i += per {
		vs, err := vals(outs[i : i+per])
		if err != nil {
			return nil, nil, err
		}
		vss = append(vss, vs)
	}
	return mean(vss), outs[len(outs)-per:], nil
}

// mean averages per-seed value vectors element by element, acc += v/n in
// seed order (§4.3): the one reducer of every seed-averaged report.
func mean(vss [][]float64) []float64 {
	acc := make([]float64, len(vss[0]))
	n := float64(len(vss))
	for _, vs := range vss {
		for j, v := range vs {
			acc[j] += v / n
		}
	}
	return acc
}

// each reads the same values from every outcome of a seed.
func each(read func(prdrb.Outcome) []float64) func([]prdrb.Outcome) ([]float64, error) {
	return func(rs []prdrb.Outcome) (vs []float64, _ error) {
		for _, o := range rs {
			vs = append(vs, read(o)...)
		}
		return vs, nil
	}
}

// lossless fails unless every run delivered all it offered.
func lossless(outs ...prdrb.Outcome) error {
	for _, o := range outs {
		if o.Res.AcceptedRatio != 1 {
			return fmt.Errorf("%s lost traffic (accepted %.3f)", o.Res.Policy, o.Res.AcceptedRatio)
		}
	}
	return nil
}
