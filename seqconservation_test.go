package prdrb

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"prdrb/internal/faults"
	"prdrb/internal/network"
	"prdrb/internal/topology"
)

// seqCell is one pinned cell of the sequence-conservation suite.
type seqCell struct {
	name    string
	topo    func() Topology
	policy  Policy
	install func(t *testing.T, s *Sim) Time
	// want maps a shard count to the fingerprint captured from the build
	// that scheduled every link-free event eagerly.
	want map[int]string
}

func seqUniform(rate float64, window Time) func(*testing.T, *Sim) Time {
	return func(t *testing.T, s *Sim) Time {
		if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: rate, Start: 0, End: window}); err != nil {
			t.Fatal(err)
		}
		return window
	}
}

func seqBursts(pattern string) func(*testing.T, *Sim) Time {
	return func(t *testing.T, s *Sim) Time {
		end, err := s.InstallBursts(BurstSpec{
			Pattern: pattern, RateMbps: 900,
			Len: 100 * Microsecond, Gap: 100 * Microsecond, Count: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
}

// seqFaulted takes ten random links down while traffic flows, repairs
// them, and then halves their bandwidth: a port goes down while its link is
// still serializing, comes back with a backlog, and changes serialization
// time under load.
func seqFaulted(t *testing.T, s *Sim) Time {
	plan := RandomLinkFaults(s.Net.Topo, 23, 10, 40*Microsecond, 80*Microsecond, 60*Microsecond)
	for _, ev := range append([]FaultEvent(nil), plan.Events...) {
		if ev.Kind == faults.LinkUp {
			plan.Add(FaultEvent{At: ev.At + 30*Microsecond, Kind: faults.LinkDegrade, Router: ev.Router, Port: ev.Port, Factor: 0.5})
		}
	}
	if _, err := s.InstallFaults(plan); err != nil {
		t.Fatal(err)
	}
	return seqUniform(900, 300*Microsecond)(t, s)
}

// TestSeqConservation pins what makes lazily materialised link-free events
// invisible: every sequence number is consumed exactly as when each of them
// was scheduled (final Engine.Seq() per shard), and so every simulated
// outcome — all Results fields, including the drain time, and every port's
// busy time and byte count — equals the constants captured from the parent
// build, serial and on two shards, across saturation, faults with repair
// and degradation, dateline rings and the PR-DRB ACK machinery. When a
// benchmark digest moves, run this first.
func TestSeqConservation(t *testing.T) {
	cells := []seqCell{
		{
			name: "ft-4-3/adaptive/uniform-saturated",
			topo: func() Topology { return FatTree(4, 3) }, policy: PolicyAdaptive,
			install: seqUniform(800, 400*Microsecond),
			want: map[int]string{
				1: "seq=[29752] results=eacf5221eeee6470 links=f9594cb577c5a6de",
				2: "seq=[11350 21164] results=8653061d34915711 links=f9594cb577c5a6de",
			},
		},
		{
			name: "mesh-4x4/deterministic/down-repair-degrade",
			topo: func() Topology { return Mesh(4, 4) }, policy: PolicyDeterministic,
			install: seqFaulted,
			want: map[int]string{
				1: "seq=[5187] results=3bf2a1af0b070086 links=9d8581d975c27493",
				2: "seq=[2731 2684] results=aac9c43aebf4060f links=bf36e770055752aa",
			},
		},
		{
			name: "torus-4x4/cyclic/uniform",
			topo: func() Topology { return Torus(4, 4) }, policy: PolicyCyclic,
			install: seqUniform(900, 300*Microsecond),
			want: map[int]string{
				1: "seq=[4853] results=3f982ea476e916c1 links=5f5b85db0932d1fa",
				2: "seq=[2563 2695] results=323b59518658f70b links=5f5b85db0932d1fa",
			},
		},
		{
			name: "df-4-8-2-2/pr-drb/bursts",
			topo: func() Topology { return Dragonfly(4, 8, 2, 2) }, policy: PolicyPRDRB,
			install: seqBursts("shuffle"),
			want: map[int]string{
				1: "seq=[30483] results=2f00878ed77d89cb links=180322128205d45e",
				2: "seq=[14912 18565] results=e382f12b1a2604f0 links=d28fbd335f7cac97",
			},
		},
	}
	for _, c := range cells {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", c.name, shards), func(t *testing.T) {
				s := MustNewSim(Experiment{Topology: c.topo(), Policy: c.policy, Seed: 11, Shards: shards})
				end := c.install(t, s)
				res := s.Execute(end + Second)
				if res.DeliveredPkts == 0 {
					t.Fatal("nothing delivered")
				}
				var seqs []uint64
				if g := s.Net.Group(); g != nil {
					for _, e := range g.Engines {
						seqs = append(seqs, e.Seq())
					}
				} else {
					seqs = append(seqs, s.Eng.Seq())
				}
				links := fnv.New64a()
				writeLinkFingerprint(links, s)
				// Results is a Stringer; the conversion strips the method so
				// %+v prints every field, not the summary line.
				type allFields Results
				results := fnv.New64a()
				fmt.Fprintf(results, "%+v", allFields(res))
				got := fmt.Sprintf("seq=%v results=%016x links=%016x", seqs, results.Sum64(), links.Sum64())
				if testing.Verbose() {
					t.Logf("%+v", allFields(res))
				}
				if got != c.want[shards] {
					t.Errorf("fingerprint moved\n got: %s\nwant: %s\n(%d pkts, dropped %d, elapsed %v)",
						got, c.want[shards], res.DeliveredPkts, res.DroppedPkts, res.Elapsed)
				}
			})
		}
	}
}

// writeLinkFingerprint writes every output port's busy time and bytes in
// the fabric's port order — router ports, then NIC injection ports — with
// an unwired router port, which the link table leaves out, as zeros.
func writeLinkFingerprint(w io.Writer, s *Sim) {
	var links network.LinkTable
	s.Net.ReadLinks(s.Now(), &links)
	rows := links.Links
	for r := range s.Net.Routers {
		for p := 0; p < s.Net.Topo.Radix(topology.RouterID(r)); p++ {
			var busy, bytes int64
			if len(rows) > 0 && int(rows[0].Router) == r && rows[0].Port == p {
				busy, bytes, rows = rows[0].BusyNs, rows[0].TxBytes, rows[1:]
			}
			fmt.Fprintf(w, "%d.%d:%d,%d;", r, p, busy, bytes)
		}
	}
	for _, l := range rows {
		fmt.Fprintf(w, "%d.%d:%d,%d;", l.Router, l.Port, l.BusyNs, l.TxBytes)
	}
}
