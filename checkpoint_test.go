package prdrb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prdrb/internal/ckpt"
	"prdrb/internal/faults"
	"prdrb/internal/network"
	"prdrb/internal/sim"
)

// Checkpoint/resume equivalence tests. Each scenario runs three ways:
// uninterrupted, checkpointed-at-t/2 (same process, capture is passive),
// and resumed-from-file (fresh simulation replayed to the checkpoint and
// verified against its seal, then continued). The resumed run must match
// the uninterrupted run exactly — summary string, per-destination
// delivered counts, drop/recovery counters.

// ckptScenario builds one configured simulation. Each call must return a
// fresh but identically configured instance — the resume contract.
type ckptScenario struct {
	name  string
	build func(t *testing.T) *Sim
	// horizon is the uninterrupted run's Execute horizon.
	horizon Time
	// at is the checkpoint time (aligned by the test).
	at Time
}

// deliveredVector snapshots per-destination delivered message counts —
// the "delivered set" fingerprint pinned across resume.
func deliveredVector(s *Sim) []int64 {
	out := make([]int64, len(s.Net.NICs))
	for i, nic := range s.Net.NICs {
		out[i] = nic.Delivered
	}
	return out
}

func runCkptScenario(t *testing.T, sc ckptScenario) {
	t.Helper()

	// Uninterrupted reference.
	ref := sc.build(t)
	refRes := ref.Execute(sc.horizon)
	refSummary := fmt.Sprintf("%s p50=%.3f p99=%.3f dropped=%d unreachable=%d recoveries=%d",
		refRes.String(), refRes.P50Us, refRes.P99Us, refRes.DroppedPkts, refRes.UnreachableMsgs, refRes.Recoveries)
	refDelivered := deliveredVector(ref)

	// Checkpoint writer: run to the aligned capture point, write, finish.
	writer := sc.build(t)
	at := writer.AlignCheckpoint(sc.at)
	writer.Execute(at)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	n, err := writer.WriteCheckpoint(path)
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if n == 0 {
		t.Fatalf("empty checkpoint")
	}
	wRes := writer.Execute(sc.horizon)
	if got := wRes.String(); got != refRes.String() {
		t.Fatalf("capture perturbed the run:\nref: %s\ngot: %s", refRes.String(), got)
	}

	// Resumed run: fresh simulation, replay to the checkpoint, verify the seal,
	// continue to the horizon.
	resumed := sc.build(t)
	meta, err := resumed.Resume(path)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if meta.At != at {
		t.Fatalf("resumed at %v, checkpoint was %v", meta.At, at)
	}
	resRes := resumed.Execute(sc.horizon)
	resSummary := fmt.Sprintf("%s p50=%.3f p99=%.3f dropped=%d unreachable=%d recoveries=%d",
		resRes.String(), resRes.P50Us, resRes.P99Us, resRes.DroppedPkts, resRes.UnreachableMsgs, resRes.Recoveries)
	if resSummary != refSummary {
		t.Fatalf("resumed summary diverged:\nref: %s\ngot: %s", refSummary, resSummary)
	}
	resDelivered := deliveredVector(resumed)
	for i := range refDelivered {
		if refDelivered[i] != resDelivered[i] {
			t.Fatalf("delivered set diverged at node %d: ref %d, resumed %d",
				i, refDelivered[i], resDelivered[i])
		}
	}
}

func TestCheckpointResumeSerial(t *testing.T) {
	runCkptScenario(t, ckptScenario{
		name: "serial-bursts",
		build: func(t *testing.T) *Sim {
			s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 42})
			if _, err := s.InstallBursts(BurstSpec{
				Pattern: "shuffle", RateMbps: 900,
				Len: 150 * Microsecond, Gap: 150 * Microsecond,
				Count: 2, PatternNodes: 32,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		},
		horizon: 5 * Millisecond,
		at:      300 * Microsecond,
	})
}

func TestCheckpointResumeSharded(t *testing.T) {
	runCkptScenario(t, ckptScenario{
		name: "sharded-shuffle",
		build: func(t *testing.T) *Sim {
			s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 42, Shards: 4})
			if err := s.InstallPattern(PatternSpec{
				Pattern: "shuffle", RateMbps: 400, Start: 0, End: 400 * Microsecond,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		},
		horizon: 5 * Millisecond,
		at:      200 * Microsecond,
	})
}

// TestCheckpointResumeMidFlap checkpoints inside a link flap cycle: the
// link is down at capture time and comes back after it, so the resumed
// run must reconstruct the failed-link state and the repair event.
func TestCheckpointResumeMidFlap(t *testing.T) {
	runCkptScenario(t, ckptScenario{
		name: "faulted-mid-flap",
		build: func(t *testing.T) *Sim {
			s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: PolicyPRDRB, Seed: 23})
			// Flap a core link: down at 50us/250us/450us, up 100us later.
			plan := faults.FlappingLink(5, 1, 50*Microsecond, 200*Microsecond, 3)
			if _, err := s.InstallFaults(plan); err != nil {
				t.Fatal(err)
			}
			s.InstallHotSpot(map[NodeID]NodeID{0: 15, 3: 12, 5: 10, 12: 3, 15: 0, 10: 5},
				1200, 0, 600*Microsecond)
			return s
		},
		horizon: 5 * Millisecond,
		// 120us: after the first down (50us), before its repair (150us).
		at: 120 * Microsecond,
	})
}

// TestCheckpointResumeMidRepair checkpoints between a random fault's
// failure and its repair, with more faults still scheduled after the
// capture point.
func TestCheckpointResumeMidRepair(t *testing.T) {
	runCkptScenario(t, ckptScenario{
		name: "faulted-mid-repair",
		build: func(t *testing.T) *Sim {
			s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: PolicyPRDRB, Seed: 23})
			plan := RandomLinkFaults(s.Net.Topo, 23, 3, 50*Microsecond, 100*Microsecond, 300*Microsecond)
			if _, err := s.InstallFaults(plan); err != nil {
				t.Fatal(err)
			}
			s.InstallHotSpot(map[NodeID]NodeID{0: 15, 3: 12, 5: 10, 12: 3, 15: 0, 10: 5},
				1200, 0, 400*Microsecond)
			return s
		},
		horizon: Second,
		// Faults start in [50us, 150us) and repair 300us later: 200us sits
		// inside every fault's down window.
		at: 200 * Microsecond,
	})
}

// TestCheckpointResumeShardedFaulted combines both hard cases: a sharded
// run with mid-flight faults, captured at a window barrier.
func TestCheckpointResumeShardedFaulted(t *testing.T) {
	runCkptScenario(t, ckptScenario{
		name: "sharded-faulted",
		build: func(t *testing.T) *Sim {
			s := MustNewSim(Experiment{Topology: Mesh(4, 4), Policy: PolicyPRDRB, Seed: 23, Shards: 2})
			plan := RandomLinkFaults(s.Net.Topo, 23, 2, 50*Microsecond, 100*Microsecond, 300*Microsecond)
			if _, err := s.InstallFaults(plan); err != nil {
				t.Fatal(err)
			}
			if err := s.InstallPattern(PatternSpec{
				Pattern: "uniform", RateMbps: 300, Start: 0, End: 400 * Microsecond,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		},
		horizon: 5 * Millisecond,
		at:      200 * Microsecond,
	})
}

// TestCheckpointAllPolicies round-trips a short run under every routing
// policy — the encoders must handle non-predictive controllers (no
// solution database) and every policy's own RNG/cycle state.
func TestCheckpointAllPolicies(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			runCkptScenario(t, ckptScenario{
				name: "policy-" + string(p),
				build: func(t *testing.T) *Sim {
					s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: p, Seed: 7})
					if err := s.InstallPattern(PatternSpec{
						Pattern: "shuffle", RateMbps: 300, Start: 0, End: 200 * Microsecond,
					}); err != nil {
						t.Fatal(err)
					}
					return s
				},
				horizon: 2 * Millisecond,
				at:      100 * Microsecond,
			})
		})
	}
}

// TestResumeRefusesMismatch pins the refusal paths: wrong seed (config
// digest), wrong shard count, and a corrupted file.
func TestResumeRefusesMismatch(t *testing.T) {
	build := func(topo Topology, seed uint64, shards int) *Sim {
		s := MustNewSim(Experiment{Topology: topo, Policy: PolicyPRDRB, Seed: seed, Shards: shards})
		if err := s.InstallPattern(PatternSpec{
			Pattern: "shuffle", RateMbps: 400, Start: 0, End: 200 * Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	checkpoint := func(topo Topology) {
		w := build(topo, 42, 1)
		w.Execute(w.AlignCheckpoint(100 * Microsecond))
		if _, err := w.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
	}

	checkpoint(FatTree(4, 3))
	if _, err := build(FatTree(4, 3), 43, 1).Resume(path); err == nil {
		t.Fatalf("resume accepted a different seed")
	}
	if _, err := build(FatTree(4, 3), 42, 2).Resume(path); err == nil {
		t.Fatalf("resume accepted a different shard count")
	}

	// Same Go type, router and terminal counts: only the topology's name
	// tells a mesh from a torus, and the config check must catch it before
	// any replay.
	checkpoint(Mesh(8, 8))
	if _, err := build(Torus(8, 8), 42, 1).Resume(path); err == nil || !strings.Contains(err.Error(), "config digest") {
		t.Fatalf("torus-8x8 resume of a mesh-8x8 checkpoint: err = %v, want the config-digest refusal", err)
	}
}

// noopActor is an event target that does nothing.
type noopActor struct{}

func (noopActor) HandleEvent(*sim.Engine, uint8, uint64) {}

// TestResumeDetectsDivergence perturbs the resumed simulation behind the
// configuration digest's back and requires the seal to refuse the resume,
// naming the component the perturbation reached first.
func TestResumeDetectsDivergence(t *testing.T) {
	cases := []struct {
		name    string
		exp     Experiment
		perturb func(s *Sim)
		want    []string // acceptable component names
	}{
		{
			name: "extra-event",
			exp:  Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 42, Shards: 2},
			perturb: func(s *Sim) {
				s.Net.Shards[1].Eng.ScheduleEvent(10*Microsecond, noopActor{}, 0, 0)
			},
			want: []string{"engine"},
		},
		{
			name: "extra-send",
			exp:  Experiment{Topology: FatTree(4, 3), Policy: PolicyPRDRB, Seed: 42},
			perturb: func(s *Sim) {
				s.Net.NICs[0].Send(s.Eng, 5, 512, network.MPISend, 0)
			},
			want: []string{"network", "results"},
		},
		{
			name: "failed-link",
			exp:  Experiment{Topology: Mesh(4, 4), Policy: PolicyPRDRB, Seed: 23},
			perturb: func(s *Sim) {
				if err := s.Net.FailLink(5, 1); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"network"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Sim {
				s := MustNewSim(tc.exp)
				if err := s.InstallPattern(PatternSpec{
					Pattern: "uniform", RateMbps: 300, Start: 0, End: 200 * Microsecond,
				}); err != nil {
					t.Fatal(err)
				}
				return s
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			w := build()
			w.Execute(w.AlignCheckpoint(100 * Microsecond))
			if _, err := w.WriteCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			if _, err := build().Resume(path); err != nil {
				t.Fatalf("unperturbed resume: %v", err)
			}
			r := build()
			tc.perturb(r)
			_, err := r.Resume(path)
			if err == nil {
				t.Fatal("resume accepted a perturbed replay")
			}
			t.Logf("refused: %v", err)
			for _, name := range tc.want {
				if strings.Contains(err.Error(), fmt.Sprintf("component %q", name)) {
					return
				}
			}
			t.Fatalf("err = %v, want it to name one of %v", err, tc.want)
		})
	}
}

// TestCheckpointSealFormat pins the container around the seal: a capture
// stays under a kilobyte on a fat tree and on a sharded dragonfly, and
// files of the previous format versions are refused with the version error.
func TestCheckpointSealFormat(t *testing.T) {
	for _, tc := range []struct {
		topo   string
		shards int
	}{{"ft-4-3", 1}, {"df-4-8-2-2", 2}} {
		topo, err := TopologyByName(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNewSim(Experiment{Topology: topo, Policy: PolicyPRDRB, Seed: 3, Shards: tc.shards})
		if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 300, End: 100 * Microsecond}); err != nil {
			t.Fatal(err)
		}
		s.Execute(s.AlignCheckpoint(50 * Microsecond))
		f, err := s.CaptureCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		data := ckpt.Encode(f)
		if len(data) > 1024 {
			t.Errorf("%s at %d shards: checkpoint is %d bytes, want <= 1024", tc.topo, tc.shards, len(data))
		}
		if err := s.VerifyCheckpoint(data); err != nil {
			t.Errorf("%s at %d shards: verify against its own state: %v", tc.topo, tc.shards, err)
		}

		// Version 3 seals hashed one pending event per pattern source.
		for _, v := range []uint32{2, 3} {
			binary.LittleEndian.PutUint32(data[8:12], v)
			path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.ckpt", v))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resume(path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported format version %d", v)) {
				t.Errorf("%s: version-%d file: err = %v, want the version refusal", tc.topo, v, err)
			}
		}
	}
}
