// Package phase implements the application-analysis side of the paper: the
// communication matrices and topological degree of communication (TDC) of
// §2.2.6 (Figs 2.10-2.13), and a PAS2P-style detection of repetitive
// phases (§2.2.5, Table 2.2): segment the trace at the large compute
// regions that separate communication bursts, fingerprint each global
// communication phase, and count how often each fingerprint repeats — the
// repetitiveness PR-DRB exploits.
package phase

import (
	"sort"
	"strings"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/trace"
)

// CommMatrix accumulates the bytes sent rank-to-rank by application-level
// point-to-point calls — the communication matrix of §2.2.6. Events that
// were lowered from collectives (Allreduce, Bcast, ...) are excluded, as
// PAS2P counts those as collective calls rather than point-to-point
// topology (the paper's TDC figures — LAMMPS ~7, Sweep3D ~4 — only make
// sense this way, since both apps also call Allreduce).
func CommMatrix(tr *trace.Trace) [][]int64 {
	m := make([][]int64, tr.Ranks)
	for i := range m {
		m[i] = make([]int64, tr.Ranks)
	}
	for r := 0; r < tr.Ranks; r++ {
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if (ev.Op == trace.OpSend || ev.Op == trace.OpIsend) && !isCollective(ev.MPIType) {
				m[r][ev.Peer] += int64(ev.Bytes)
			}
		}
	}
	return m
}

func isCollective(mpiType uint8) bool {
	switch mpiType {
	case network.MPIBcast, network.MPIReduce, network.MPIAllreduce, network.MPIBarrier, network.MPIAlltoall:
		return true
	}
	return false
}

// TDC returns the average and maximum topological degree of communication:
// how many distinct destinations each rank talks to (§2.2.6: LAMMPS ~7,
// Sweep3D ~4, POP max 11).
func TDC(m [][]int64) (avg float64, max int) {
	total := 0
	for _, row := range m {
		deg := 0
		for _, b := range row {
			if b > 0 {
				deg++
			}
		}
		total += deg
		if deg > max {
			max = deg
		}
	}
	if len(m) > 0 {
		avg = float64(total) / float64(len(m))
	}
	return avg, max
}

// RenderMatrix draws an ASCII intensity map of the matrix (the textual
// stand-in for the paper's color plots).
func RenderMatrix(m [][]int64) string {
	var peak int64
	for _, row := range m {
		for _, b := range row {
			if b > peak {
				peak = b
			}
		}
	}
	if peak == 0 {
		return "(empty matrix)\n"
	}
	shades := []byte(" .:-=+*#%@")
	var sb strings.Builder
	for _, row := range m {
		for _, b := range row {
			idx := int(b * int64(len(shades)-1) / peak)
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Flow is a rank-level traffic flow with its volume.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// Phase is one global communication phase: everything all ranks
// communicate between two consecutive major compute regions.
type Phase struct {
	Index int
	Sig   uint64
	Flows []Flow
	Bytes int64
}

// Class groups identical phases: the paper's "relevant phase" with its
// weight (# of repetitions, Table 2.2).
type Class struct {
	Weight int
	First  int // index of the first occurrence
	Bytes  int64
}

// Analysis is the result of phase detection over a trace.
type Analysis struct {
	Phases  []Phase
	Classes []Class // sorted by weight descending
}

// Analyze segments the trace into global phases at compute events of at
// least minCompute duration and fingerprints each phase's communication
// pattern. Ranks are segmented independently; global phase k is the union
// of every rank's k-th segment (SPMD alignment), up to the shortest rank.
func Analyze(tr *trace.Trace, minCompute sim.Time) *Analysis {
	// Per-rank segmentation.
	segs := make([][][]Flow, tr.Ranks)
	for r := range segs {
		var cur []Flow
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			switch {
			case ev.Op == trace.OpCompute && ev.Dur >= minCompute:
				segs[r] = append(segs[r], cur)
				cur = nil
			case ev.Op == trace.OpSend || ev.Op == trace.OpIsend:
				cur = append(cur, Flow{Src: r, Dst: ev.Peer, Bytes: int64(ev.Bytes)})
			}
		}
		segs[r] = append(segs[r], cur)
	}
	nPhases := -1
	for _, s := range segs {
		if nPhases < 0 || len(s) < nPhases {
			nPhases = len(s)
		}
	}
	a := &Analysis{}
	for k := 0; k < nPhases; k++ {
		var flows []Flow
		for r := range segs {
			flows = append(flows, segs[r][k]...)
		}
		if len(flows) == 0 {
			continue
		}
		p := Phase{Index: len(a.Phases), Flows: mergeFlows(flows)}
		for _, f := range p.Flows {
			p.Bytes += f.Bytes
		}
		p.Sig = signature(p.Flows)
		a.Phases = append(a.Phases, p)
	}
	a.classify()
	return a
}

// mergeFlows combines duplicate (src,dst) entries and sorts.
func mergeFlows(flows []Flow) []Flow {
	acc := make(map[[2]int]int64, len(flows))
	for _, f := range flows {
		acc[[2]int{f.Src, f.Dst}] += f.Bytes
	}
	out := make([]Flow, 0, len(acc))
	for k, b := range acc {
		out = append(out, Flow{Src: k[0], Dst: k[1], Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// signature hashes a merged flow set (FNV-1a over src, dst and a coarse
// size bucket so minor payload jitter does not split classes).
func signature(flows []Flow) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for _, f := range flows {
		mix(uint64(f.Src))
		mix(uint64(f.Dst))
		bucket := 0
		for b := f.Bytes; b > 0; b >>= 3 {
			bucket++
		}
		mix(uint64(bucket))
	}
	return h
}

func (a *Analysis) classify() {
	idx := make(map[uint64]int)
	for _, p := range a.Phases {
		if i, ok := idx[p.Sig]; ok {
			a.Classes[i].Weight++
			continue
		}
		idx[p.Sig] = len(a.Classes)
		a.Classes = append(a.Classes, Class{Weight: 1, First: p.Index, Bytes: p.Bytes})
	}
	sort.SliceStable(a.Classes, func(i, j int) bool { return a.Classes[i].Weight > a.Classes[j].Weight })
}

// TotalPhases returns the number of global phases found.
func (a *Analysis) TotalPhases() int { return len(a.Phases) }

// Relevant returns the phase classes repeated at least minWeight times —
// the "relevant phases" column of Table 2.2.
func (a *Analysis) Relevant(minWeight int) []Class {
	var out []Class
	for _, c := range a.Classes {
		if c.Weight >= minWeight {
			out = append(out, c)
		}
	}
	return out
}

// RepetitionWeight sums the repetitions of relevant phases (the Table 2.2
// "weight" column).
func (a *Analysis) RepetitionWeight(minWeight int) int {
	total := 0
	for _, c := range a.Relevant(minWeight) {
		total += c.Weight
	}
	return total
}
