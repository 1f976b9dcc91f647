// Package workloads generates logical traces that reproduce the published
// communication structure of the parallel applications the paper evaluates
// (§2.2, §4.8): NAS LU and MG (S/A/B classes), the LAMMPS molecular
// dynamics Chain and Comb benchmarks, the Parallel Ocean Program (POP) and
// Sweep3D.
//
// The paper drove its simulator from PAS2P-extracted traces of the real
// applications; those traces are not available, so each generator is built
// from the paper's own published statistics: the MPI call-mix breakdown
// (Table 2.1), the communication matrices and TDC (Figs 2.10-2.13), the
// phase structure and repetition counts (Table 2.2), and the standard
// communication structure of each code (wavefront sweeps for LU/Sweep3D,
// V-cycle halos for MG, spatial-decomposition halos plus Allreduce for
// LAMMPS, ocean halos plus heavy Allreduce for POP). PR-DRB keys off which
// flows contend and how often patterns repeat, which is exactly what these
// statistics pin down.
package workloads

import (
	"fmt"
	"math"

	"prdrb/internal/sim"
	"prdrb/internal/trace"
)

// Options tunes a generator. Zero values select per-workload defaults
// scaled for simulation affordability (the repetition *structure* is
// preserved; the repetition *count* is truncated).
type Options struct {
	// Ranks is the process count (must match the workload's decomposition:
	// perfect square for 2-D codes, cube-ish for MG/LAMMPS). 0 = 64.
	Ranks int
	// Iterations overrides the number of outer iterations/timesteps.
	Iterations int
	// MsgBytes overrides the halo message size.
	MsgBytes int
	// ComputeNs overrides the per-iteration compute time separating the
	// communication bursts (what makes the traffic bursty, §2.2.3).
	ComputeNs sim.Time
}

func (o Options) ranks() int {
	if o.Ranks == 0 {
		return 64
	}
	return o.Ranks
}

func (o Options) iters(def int) int {
	if o.Iterations == 0 {
		return def
	}
	return o.Iterations
}

func (o Options) bytes(def int) int {
	if o.MsgBytes == 0 {
		return def
	}
	return o.MsgBytes
}

func (o Options) compute(def sim.Time) sim.Time {
	if o.ComputeNs == 0 {
		return def
	}
	return o.ComputeNs
}

// generator is a workload resolved against its options: the trace's name
// and rank count, and the body that emits its events. Every body is a pure
// function of the options it closed over (no RNG, no state kept between
// calls), which is what lets trace.Build run it twice — once to size the
// trace, once to fill it.
type generator struct {
	name  string
	ranks int
	emit  func(b *trace.Builder) error
}

// sqrtExact returns the integer square root of n, or an error if n is not
// a perfect square.
func sqrtExact(n int) (int, error) {
	s := int(math.Round(math.Sqrt(float64(n))))
	if s*s != n {
		return 0, fmt.Errorf("workloads: %d ranks is not a perfect square", n)
	}
	return s, nil
}

// grid2 addresses ranks on a w x w grid.
type grid2 struct{ w int }

func (g grid2) id(x, y int) int     { return y*g.w + x }
func (g grid2) at(r int) (x, y int) { return r % g.w, r / g.w }

// nasLU generates the LU pseudo-application (§4.8.2): a 2-D pipelined
// wavefront (SSOR) with blocking MPI_Send/MPI_Recv pairs sweeping the rank
// grid in both diagonal directions, plus the tiny Allreduce/Bcast residue
// Table 2.1 shows (LU: ~49.8% Send, ~49.5% Recv).
func nasLU(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	iters := opt.iters(6)
	bytes := opt.bytes(2 * 1024)
	comp := opt.compute(40 * sim.Microsecond)
	return generator{name: fmt.Sprintf("nas-lu-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		sweep := func(reverse bool) {
			// Wavefront: each rank receives from its upstream neighbours,
			// computes, then sends downstream. Diagonal order emerges from the
			// blocking dependencies; emission order per rank is recv, recv,
			// send, send.
			trace.Block(b, reverse, func() {
				for r := 0; r < n; r++ {
					x, y := g.at(r)
					dx, dy := 1, 1
					if reverse {
						dx, dy = -1, -1
					}
					if ux := x - dx; ux >= 0 && ux < w {
						b.Recv(r, g.id(ux, y))
					}
					if uy := y - dy; uy >= 0 && uy < w {
						b.Recv(r, g.id(x, uy))
					}
					b.Compute(r, comp/4)
					if sx := x + dx; sx >= 0 && sx < w {
						b.Send(r, g.id(sx, y), bytes)
					}
					if sy := y + dy; sy >= 0 && sy < w {
						b.Send(r, g.id(x, sy), bytes)
					}
				}
			})
		}
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			sweep(false) // lower-triangular sweep
			sweep(true)  // upper-triangular sweep
			if it%4 == 3 {
				b.Allreduce(64) // residual norm
			}
		}
		b.Bcast(0, 128)
		return nil
	}}, nil
}

// nasMG generates the MG multigrid kernel: per V-cycle, halo exchanges in
// the 3 logical dimensions whose neighbour distance doubles at each coarser
// level (the "long- and short-distance communication" of §4.8.2), with
// Irecv/Send/Wait triplets (Table 2.1 MG: ~44% Send + ~44% Wait) and an
// Allreduce per cycle. class is the problem class: 'S', 'A' or 'B' (§4.8.2).
func nasMG(class byte, opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	var iters, bytes int
	var levels int
	switch class {
	case 'S':
		iters, bytes, levels = opt.iters(4), opt.bytes(256), 2
	case 'A':
		iters, bytes, levels = opt.iters(5), opt.bytes(4*1024), 3
	case 'B':
		iters, bytes, levels = opt.iters(8), opt.bytes(8*1024), 3
	default:
		return generator{}, fmt.Errorf("workloads: unknown MG class %q", string(class))
	}
	comp := opt.compute(30 * sim.Microsecond)
	return generator{name: fmt.Sprintf("nas-mg-%c-%d", class, n), ranks: n, emit: func(b *trace.Builder) error {
		halo := func(dist, sz int) {
			// Exchange with the +/- neighbours at the given distance in both
			// grid dimensions (wrapped: MG uses periodic boundaries).
			trace.Block(b, [2]int{dist, sz}, func() {
				for r := 0; r < n; r++ {
					x, y := g.at(r)
					peers := []int{
						g.id((x+dist)%w, y), g.id((x-dist+w*dist)%w, y),
						g.id(x, (y+dist)%w), g.id(x, (y-dist+w*dist)%w),
					}
					for _, p := range peers {
						if p == r {
							continue
						}
						b.IrecvQuiet(r, p)
					}
					for _, p := range peers {
						if p == r {
							continue
						}
						b.Send(r, p, sz)
					}
					for _, p := range peers {
						if p == r {
							continue
						}
						b.Wait(r)
					}
				}
			})
		}
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// V-cycle down (restriction): coarser level = doubled distance,
			// quartered message.
			for l := 0; l < levels; l++ {
				dist := 1 << l
				if dist >= w {
					break
				}
				sz := bytes >> (2 * l)
				if sz < 64 {
					sz = 64
				}
				halo(dist, sz)
			}
			// V-cycle up (prolongation), reversed.
			for l := levels - 1; l >= 0; l-- {
				dist := 1 << l
				if dist >= w {
					continue
				}
				sz := bytes >> (2 * l)
				if sz < 64 {
					sz = 64
				}
				halo(dist, sz)
			}
			b.Allreduce(64) // norm check
			if it%4 == 0 {
				b.Reduce(0, 64)
			}
		}
		b.Bcast(0, 128)
		return nil
	}}, nil
}

// lammpsChain generates the LAMMPS Chain benchmark (Fig 2.10): 3-D
// spatial-decomposition halo exchanges giving an average TDC of ~7 per
// node (6 face neighbours + diagonal residue), with per-timestep
// Irecv/Send/Wait pairs (Table 2.1: ~43.6% Send + ~43.6% Wait) and an
// Allreduce every few steps (~10.8%).
func lammpsChain(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	iters := opt.iters(10)
	bytes := opt.bytes(4 * 1024)
	comp := opt.compute(50 * sim.Microsecond)
	return generator{name: fmt.Sprintf("lammps-chain-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		var buf [7]int // neighbors' result, reused from call to call
		neighbors := func(r int) []int {
			x, y := g.at(r)
			// 4 faces + 2 diagonals + 1 long-range partner: TDC 7 (Fig 2.10's
			// diagonal band plus scattered off-diagonal communication).
			buf = [7]int{
				g.id((x+1)%w, y), g.id((x-1+w)%w, y),
				g.id(x, (y+1)%w), g.id(x, (y-1+w)%w),
				g.id((x+1)%w, (y+1)%w), g.id((x-1+w)%w, (y-1+w)%w),
				(r + n/2) % n,
			}
			out := buf[:0]
			for _, p := range buf {
				if p != r {
					out = append(out, p)
				}
			}
			return out
		}
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			trace.Block(b, "exchange", func() {
				for r := 0; r < n; r++ {
					for _, p := range neighbors(r) {
						b.IrecvQuiet(r, p)
					}
				}
				for r := 0; r < n; r++ {
					for _, p := range neighbors(r) {
						sz := bytes
						if p == (r+n/2)%n {
							sz = bytes / 4 // long-range partners move less data
						}
						b.Send(r, p, sz)
					}
				}
				for r := 0; r < n; r++ {
					for range neighbors(r) {
						b.Wait(r)
					}
				}
			})
			// Thermodynamics + neighbour-list reductions: ~2 Allreduce per
			// step keeps the ~10.8% share of Table 2.1.
			b.Allreduce(128)
			b.Allreduce(64)
			if it%3 == 2 {
				b.Bcast(0, 256)
			}
		}
		return nil
	}}, nil
}

// lammpsComb generates the LAMMPS Comb benchmark (Fig 2.11): phase 1 is a
// tight diagonal-band halo (nearest neighbours only, little to gain from
// routing, §2.2.6), phase 2 is pure Allreduce — the phase with weight >800
// the paper flags as the one worth optimizing.
func lammpsComb(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	iters := opt.iters(10)
	bytes := opt.bytes(2 * 1024)
	comp := opt.compute(40 * sim.Microsecond)
	return generator{name: fmt.Sprintf("lammps-comb-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// Phase 1: diagonal-band halo.
			trace.Block(b, "halo", func() {
				for r := 0; r < n; r++ {
					x, y := g.at(r)
					peers := []int{g.id((x+1)%w, y), g.id((x-1+w)%w, y), g.id(x, (y+1)%w), g.id(x, (y-1+w)%w)}
					for _, p := range peers {
						if p != r {
							b.IrecvQuiet(r, p)
						}
					}
					for _, p := range peers {
						if p != r {
							b.Send(r, p, bytes)
						}
					}
					for _, p := range peers {
						if p != r {
							b.Wait(r)
						}
					}
				}
			})
			// Phase 2: the heavy collective phase (charge equilibration).
			for sub := 0; sub < 2; sub++ {
				b.Allreduce(512)
			}
		}
		return nil
	}}, nil
}

// pop generates the Parallel Ocean Program (§4.8.4, Fig 2.13): 2-D ocean
// halo exchanges via Isend/Waitall (Table 2.1: 34.9% ISend + 34.9% Waitall)
// plus the ~30% MPI_Allreduce of the barotropic solver — several small
// Allreduces per step — and scattered long-distance flows (max TDC 11).
func pop(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	if w%2 != 0 {
		return generator{}, fmt.Errorf("workloads: POP needs an even grid width, got %dx%d", w, w)
	}
	g := grid2{w: w}
	iters := opt.iters(12)
	bytes := opt.bytes(2 * 1024)
	comp := opt.compute(35 * sim.Microsecond)
	return generator{name: fmt.Sprintf("pop-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// Baroclinic halo: per-neighbour Isend over pre-posted (persistent)
			// receives, completed with Waitall — one Waitall per ISend, the
			// 34.9%/34.9% pairing of Table 2.1. Edge-colored even/odd phases
			// keep the per-exchange completion deadlock-free: both endpoints
			// of every grid edge handle that edge in the same phase.
			trace.Block(b, "halo", func() {
				for dim := 0; dim < 2; dim++ {
					for phase := 0; phase < 2; phase++ {
						for r := 0; r < n; r++ {
							x, y := g.at(r)
							coord := x
							if dim == 1 {
								coord = y
							}
							dir := 1
							if coord%2 != phase {
								dir = -1
							}
							var p int
							if dim == 0 {
								p = g.id((x+dir+w)%w, y)
							} else {
								p = g.id(x, (y+dir+w)%w)
							}
							if p == r {
								continue
							}
							b.IrecvQuiet(r, p)
							b.Isend(r, p, bytes)
							b.Waitall(r)
						}
					}
				}
			})
			// Scattered remote exchanges (the off-diagonal dots of Fig 2.13):
			// every 3rd step, ranks swap small fields with a set of distant
			// partners — land-mask neighbours and gather/scatter mates that
			// push POP's max TDC toward the paper's ~11. Each partner map is
			// an involution (r -> n-1-r, and XOR masks), so exchanges pair up
			// exactly.
			if it%3 == 1 {
				trace.Block(b, "remote", func() {
					partner := func(r, variant int) int {
						switch variant {
						case 0:
							return n - 1 - r
						case 1:
							return r ^ (n / 2)
						case 2:
							return r ^ (n / 4)
						case 3:
							return r ^ (n/2 + n/8)
						default:
							return r ^ (n/2 + n/4)
						}
					}
					for variant := 0; variant < 5; variant++ {
						for r := 0; r < n; r++ {
							p := partner(r, variant)
							if p == r || p < 0 || p >= n {
								continue
							}
							b.IrecvQuiet(r, p)
							b.Isend(r, p, bytes/2)
							b.Waitall(r)
						}
					}
				})
			}
			// Barotropic solver: several small Allreduces per step.
			for s := 0; s < 3; s++ {
				b.Allreduce(64)
			}
			if it%6 == 5 {
				b.Barrier()
			}
			if it%10 == 9 {
				b.Bcast(0, 128)
			}
		}
		return nil
	}}, nil
}

// sweep3D generates the SWEEP3D neutron-transport wavefront (Fig 2.12):
// blocking Send/Recv with the 4 grid neighbours only (TDC 4), swept from
// each of the four corners (octant pairs), with negligible collectives —
// the paper's example of an application that does NOT profit from routing
// optimization because everything is nearest-neighbour.
func sweep3D(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	iters := opt.iters(3)
	bytes := opt.bytes(1024)
	comp := opt.compute(25 * sim.Microsecond)
	return generator{name: fmt.Sprintf("sweep3d-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		sweep := func(dx, dy int) {
			trace.Block(b, [2]int{dx, dy}, func() {
				for r := 0; r < n; r++ {
					x, y := g.at(r)
					if ux := x - dx; ux >= 0 && ux < w {
						b.Recv(r, g.id(ux, y))
					}
					if uy := y - dy; uy >= 0 && uy < w {
						b.Recv(r, g.id(x, uy))
					}
					b.Compute(r, comp/8)
					if sx := x + dx; sx >= 0 && sx < w {
						b.Send(r, g.id(sx, y), bytes)
					}
					if sy := y + dy; sy >= 0 && sy < w {
						b.Send(r, g.id(x, sy), bytes)
					}
				}
			})
		}
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// 4 corner sweeps (octant pairs in the 2-D decomposition).
			sweep(1, 1)
			sweep(-1, 1)
			sweep(1, -1)
			sweep(-1, -1)
			if it%4 == 3 {
				b.Allreduce(64)
			}
		}
		b.Barrier()
		return nil
	}}, nil
}

// nasFT generates the FT kernel (Table 2.2 lists classes A and B): a 3-D
// FFT whose dominant communication is the all-to-all transpose between
// pencil decompositions — one MPI_Alltoall per dimension swap per
// iteration, with the per-pair block shrinking as 1/ranks.
func nasFT(class byte, opt Options) (generator, error) {
	n := opt.ranks()
	var iters, totalBytes int
	switch class {
	case 'A':
		iters, totalBytes = opt.iters(4), opt.bytes(256*1024)
	case 'B':
		iters, totalBytes = opt.iters(6), opt.bytes(1024*1024)
	default:
		return generator{}, fmt.Errorf("workloads: unknown FT class %q", string(class))
	}
	perPair := totalBytes / n
	if perPair < 64 {
		perPair = 64
	}
	comp := opt.compute(60 * sim.Microsecond)
	return generator{name: fmt.Sprintf("nas-ft-%c-%d", class, n), ranks: n, emit: func(b *trace.Builder) error {
		// Initial distribution.
		b.Bcast(0, 512)
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// Forward transpose, local FFT (compute), inverse transpose.
			b.Alltoall(perPair)
			for r := 0; r < n; r++ {
				b.Compute(r, comp/2)
			}
			b.Alltoall(perPair)
			// Checksum reduction each iteration.
			b.Allreduce(64)
		}
		return nil
	}}, nil
}

// smg2000 generates the semicoarsening multigrid solver (Table 2.2: 10
// phases, 4 relevant, weight 1200): like MG but coarsening one dimension
// at a time, so halo distances grow anisotropically — x doubles per level
// while y stays at 1 — producing the solver's characteristic mix of short
// and increasingly long-distance neighbour traffic.
func smg2000(opt Options) (generator, error) {
	n := opt.ranks()
	w, err := sqrtExact(n)
	if err != nil {
		return generator{}, err
	}
	g := grid2{w: w}
	iters := opt.iters(6)
	bytes := opt.bytes(2 * 1024)
	comp := opt.compute(35 * sim.Microsecond)
	return generator{name: fmt.Sprintf("smg2000-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		halo := func(dx, dy, sz int) {
			trace.Block(b, [3]int{dx, dy, sz}, func() {
				for r := 0; r < n; r++ {
					x, y := g.at(r)
					peers := make([]int, 0, 4)
					if dx > 0 {
						peers = append(peers, g.id((x+dx)%w, y), g.id((x-dx+w*dx)%w, y))
					}
					if dy > 0 {
						peers = append(peers, g.id(x, (y+dy)%w), g.id(x, (y-dy+w*dy)%w))
					}
					for _, p := range peers {
						if p != r {
							b.IrecvQuiet(r, p)
						}
					}
					for _, p := range peers {
						if p != r {
							b.Send(r, p, sz)
						}
					}
					for _, p := range peers {
						if p != r {
							b.Wait(r)
						}
					}
				}
			})
		}
		for it := 0; it < iters; it++ {
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// Semicoarsening V-cycle: x halo distance doubles per level, y
			// stays fine.
			for l := 0; ; l++ {
				dx := 1 << l
				if dx >= w {
					break
				}
				sz := bytes >> l
				if sz < 64 {
					sz = 64
				}
				halo(dx, 1, sz)
			}
			b.Allreduce(64)
		}
		b.Bcast(0, 128)
		return nil
	}}, nil
}

// ByName builds a workload by its experiment identifier.
func ByName(name string, opt Options) (*trace.Trace, error) {
	g, err := byName(name, opt)
	if err != nil {
		return nil, err
	}
	return trace.Build(g.name, g.ranks, g.emit)
}

func byName(name string, opt Options) (generator, error) {
	if opt.Ranks < 0 || opt.Iterations < 0 || opt.MsgBytes < 0 || opt.ComputeNs < 0 {
		return generator{}, fmt.Errorf("workloads: negative option in %+v (0 selects the default)", opt)
	}
	switch name {
	case "nas-lu":
		return nasLU(opt)
	case "nas-mg-s":
		return nasMG('S', opt)
	case "nas-mg-a":
		return nasMG('A', opt)
	case "nas-mg-b":
		return nasMG('B', opt)
	case "nas-ft-a":
		return nasFT('A', opt)
	case "nas-ft-b":
		return nasFT('B', opt)
	case "smg2000":
		return smg2000(opt)
	case "lammps-chain":
		return lammpsChain(opt)
	case "lammps-comb":
		return lammpsComb(opt)
	case "pop":
		return pop(opt)
	case "sweep3d":
		return sweep3D(opt)
	case "ai-dp-allreduce":
		return aiDPAllreduce(opt)
	case "ai-pp-pipeline":
		return aiPPPipeline(opt)
	case "ai-dp-pp":
		return aiDPPP(opt)
	}
	return generator{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists the available workloads.
func Names() []string {
	return []string{"nas-lu", "nas-mg-s", "nas-mg-a", "nas-mg-b",
		"nas-ft-a", "nas-ft-b", "smg2000",
		"lammps-chain", "lammps-comb", "pop", "sweep3d",
		"ai-dp-allreduce", "ai-pp-pipeline", "ai-dp-pp"}
}
