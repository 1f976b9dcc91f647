package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"prdrb"
	"prdrb/internal/faults"
	"prdrb/internal/network"
	"prdrb/internal/sim"
)

// modeCell is one whole-simulation cell of the window-mode equivalence
// suite: a topology, a policy and what to install on the Sim.
type modeCell struct {
	name    string
	topo    func() prdrb.Topology
	policy  prdrb.Policy
	install func(t *testing.T, s *prdrb.Sim) prdrb.Time
}

var modeCells = []modeCell{
	{
		name: "ft-4-3/adaptive/uniform-saturated",
		topo: func() prdrb.Topology { return prdrb.FatTree(4, 3) }, policy: prdrb.PolicyAdaptive,
		install: func(t *testing.T, s *prdrb.Sim) prdrb.Time {
			end := 300 * prdrb.Microsecond
			if err := s.InstallPattern(prdrb.PatternSpec{Pattern: "uniform", RateMbps: 800, Start: 0, End: end}); err != nil {
				t.Fatal(err)
			}
			return end
		},
	},
	{
		name: "df-4-8-2-2/pr-drb/bursts",
		topo: func() prdrb.Topology { return prdrb.Dragonfly(4, 8, 2, 2) }, policy: prdrb.PolicyPRDRB,
		install: func(t *testing.T, s *prdrb.Sim) prdrb.Time {
			end, err := s.InstallBursts(prdrb.BurstSpec{
				Pattern: "shuffle", RateMbps: 900,
				Len: 100 * prdrb.Microsecond, Gap: 100 * prdrb.Microsecond, Count: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return end
		},
	},
	{
		// Links go down under traffic and come back: the transitions are
		// barrier tasks, so they land between windows of either mode.
		name: "mesh-4x4/deterministic/down-repair",
		topo: func() prdrb.Topology { return prdrb.Mesh(4, 4) }, policy: prdrb.PolicyDeterministic,
		install: func(t *testing.T, s *prdrb.Sim) prdrb.Time {
			plan := faults.RandomLinkFaults(s.Net.Topo, 23, 6, 40*prdrb.Microsecond, 80*prdrb.Microsecond, 60*prdrb.Microsecond)
			down := 0
			for _, ev := range plan.Events {
				if ev.Kind == faults.LinkDown {
					down++
				}
			}
			if down == 0 {
				t.Fatal("fault plan takes no link down")
			}
			if _, err := s.InstallFaults(plan); err != nil {
				t.Fatal(err)
			}
			end := 250 * prdrb.Microsecond
			if err := s.InstallPattern(prdrb.PatternSpec{Pattern: "uniform", RateMbps: 900, Start: 0, End: end}); err != nil {
				t.Fatal(err)
			}
			return end
		},
	},
}

// runModeCell executes the cell on the given shard count with the window
// modes force dictates (nil: the rule) and returns its fingerprint: every
// Results field, every shard engine's final sequence number and every
// port's busy time and byte count; and the group's mode counters.
func runModeCell(t *testing.T, c modeCell, shards int, force func(uint64) bool) (string, sim.WindowModes) {
	t.Helper()
	s := prdrb.MustNewSim(prdrb.Experiment{Topology: c.topo(), Policy: c.policy, Seed: 11, Shards: shards})
	g := s.Net.Group()
	g.ForceWindowMode(force)
	end := c.install(t, s)
	res := s.Execute(end + prdrb.Second)
	if res.DeliveredPkts == 0 {
		t.Fatal("nothing delivered")
	}
	var seqs []uint64
	for _, e := range g.Engines {
		seqs = append(seqs, e.Seq())
	}
	// Results is a Stringer; the conversion strips the method so %+v prints
	// every field, not the summary line.
	type allFields prdrb.Results
	fp := fmt.Sprintf("seq=%v results=%+v links=", seqs, allFields(res))
	var links network.LinkTable
	s.Net.ReadLinks(s.Now(), &links)
	for _, l := range links.Links {
		fp += fmt.Sprintf("%d.%d:%d,%d;", l.Router, l.Port, l.BusyNs, l.TxBytes)
	}
	return fp, g.WindowModes()
}

// TestWindowModeCellsEquivalent pins that the mode of a window is invisible
// to the simulation: saturated adaptive routing on the fat tree, PR-DRB
// bursts on a dragonfly and a mesh whose links fail and recover give the
// same fingerprint on 2 and 4 shards whether every window runs inline,
// every window is released, the two alternate or the rule decides — and the
// same as with a single worker. Run it with -cpu 1,2,4 (scripts/verify.sh).
func TestWindowModeCellsEquivalent(t *testing.T) {
	modes := []struct {
		name   string
		force  func(uint64) bool
		forced func(sim.WindowModes) bool // the counters show the hook took effect
	}{
		{"rule", nil, func(sim.WindowModes) bool { return true }},
		{"inline", func(uint64) bool { return false }, func(m sim.WindowModes) bool { return m.Released == 0 }},
		{"released", func(uint64) bool { return true }, func(m sim.WindowModes) bool { return m.Inline == 0 && m.Flips == 1 }},
		{"flipping", func(w uint64) bool { return w%2 == 1 }, func(m sim.WindowModes) bool { return m.Flips == m.Inline+m.Released-1 }},
	}
	for _, c := range modeCells {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", c.name, shards), func(t *testing.T) {
				old := runtime.GOMAXPROCS(1)
				ref, _ := runModeCell(t, c, shards, modes[1].force)
				runtime.GOMAXPROCS(old)
				for _, m := range modes {
					got, counted := runModeCell(t, c, shards, m.force)
					if got != ref {
						t.Errorf("%s windows at GOMAXPROCS=%d differ from inline windows on one worker\n got: %.300s…\nwant: %.300s…",
							m.name, old, got, ref)
					}
					if !m.forced(counted) {
						t.Errorf("%s windows: counters read %+v", m.name, counted)
					}
				}
			})
		}
	}
}
