package prdrb

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// flowCount is a per-(src,dst) delivered-message tally — the delivered-set
// fingerprint the cross-shard equivalence contract is stated over.
type flowCount map[[2]NodeID]int

func (fc flowCount) String() string {
	keys := make([][2]NodeID, 0, len(fc))
	for k := range fc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d->%d:%d ", k[0], k[1], fc[k])
	}
	return b.String()
}

// shardScenario is one (topology, policy, faults) preset of the equivalence
// suite.
type shardScenario struct {
	name    string
	topo    func() Topology
	policy  Policy
	faulted bool
}

// runShardScenario executes one preset at the given shard count and returns
// a full deterministic summary string plus the delivered-flow fingerprint.
func runShardScenario(t *testing.T, sc shardScenario, shards int, tel *Telemetry) (string, flowCount, Results) {
	t.Helper()
	s := MustNewSim(Experiment{Topology: sc.topo(), Policy: sc.policy, Seed: 42, Shards: shards, Telemetry: tel})
	// One tally map per destination NIC: a NIC's OnMessage always fires on
	// its own shard's goroutine, so per-destination maps are race-free even
	// when the shard group runs truly parallel; they merge after Execute.
	perDst := make([]flowCount, len(s.Net.NICs))
	for i := range s.Net.NICs {
		dst := NodeID(i)
		fc := flowCount{}
		perDst[i] = fc
		s.Net.NICs[i].OnMessage = func(_ *sim.Engine, src topology.NodeID, _ uint64, _ int, _ uint8, _ uint32) {
			fc[[2]NodeID{src, dst}]++
		}
	}
	if sc.faulted {
		plan := RandomLinkFaults(s.Net.Topo, 23, 3, 50*Microsecond, 100*Microsecond, 300*Microsecond)
		if _, err := s.InstallFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	// Sixteen communicating nodes, or the whole fabric when it is smaller
	// (the 8-terminal ft-2-3 preset).
	nodes := 16
	if n := s.Net.Topo.NumTerminals(); n < nodes {
		nodes = n
	}
	end, err := s.InstallBursts(BurstSpec{
		Pattern: "shuffle", RateMbps: 900,
		Len: 150 * Microsecond, Gap: 150 * Microsecond,
		Count: 2, PatternNodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Execute(end + Second)
	delivered := flowCount{}
	for _, fc := range perDst {
		for k, n := range fc {
			delivered[k] += n
		}
	}
	summary := fmt.Sprintf("%s p50=%.3f p99=%.3f dropped=%d unreachable=%d offered=%d accepted=%d saved=%d acks=%d",
		res.String(), res.P50Us, res.P99Us, res.DroppedPkts, res.UnreachableMsgs,
		s.Collector.Throughput.OfferedPkts, s.Collector.Throughput.AcceptedPkts,
		res.SavedPatterns, res.Stats.AcksSeen)
	return summary, delivered, res
}

// withGOMAXPROCS runs f under the given GOMAXPROCS setting and restores the
// previous value.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestShardedDeterminismAcrossGOMAXPROCS pins the hard determinism tier of
// the sharded engine: for a fixed (seed, shards) pair, the summary AND the
// full telemetry event trace must be byte-identical whether the shard group
// runs interleaved on one OS thread or truly parallel on several. Every
// trace must also validate against the committed telemetry schema.
func TestShardedDeterminismAcrossGOMAXPROCS(t *testing.T) {
	sc := shardScenario{name: "ft-prdrb", topo: func() Topology { return FatTree(4, 3) }, policy: PolicyPRDRB}
	for _, shards := range []int{1, 2, 4} {
		var refSummary, refFlows, refTrace string
		for _, procs := range []int{1, 4} {
			var summary string
			var flows flowCount
			tel := telemetry.New(TelemetryOptions{Trace: true})
			withGOMAXPROCS(procs, func() {
				summary, flows, _ = runShardScenario(t, sc, shards, tel)
			})
			var buf bytes.Buffer
			if err := tel.Tracer.WriteJSONL(&buf); err != nil {
				t.Fatalf("shards=%d procs=%d: write trace: %v", shards, procs, err)
			}
			if n, err := telemetry.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("shards=%d procs=%d: trace schema: %v", shards, procs, err)
			} else if n == 0 {
				t.Fatalf("shards=%d procs=%d: empty telemetry trace", shards, procs)
			}
			if procs == 1 {
				refSummary, refFlows, refTrace = summary, flows.String(), buf.String()
				continue
			}
			if summary != refSummary {
				t.Errorf("shards=%d: summary differs across GOMAXPROCS\n 1: %s\n%d: %s", shards, refSummary, procs, summary)
			}
			if flows.String() != refFlows {
				t.Errorf("shards=%d: delivered flows differ across GOMAXPROCS", shards)
			}
			if buf.String() != refTrace {
				t.Errorf("shards=%d: telemetry trace differs across GOMAXPROCS (%d vs %d bytes)",
					shards, len(refTrace), buf.Len())
			}
		}
	}
}

// TestShardCountEquivalence pins the cross-shard-count contract on every
// (topology, policy, faults) preset: the delivered-packet set (per-flow
// delivered-message counts) and the offered-traffic total are identical
// regardless of how the fabric is partitioned, and packet conservation
// (offered = accepted + dropped) holds in every run. Metric timing may
// legitimately shift with the shard count (cross-shard credits are
// pessimistic), so latency figures are deliberately NOT compared here.
func TestShardCountEquivalence(t *testing.T) {
	scenarios := []shardScenario{
		{name: "ft-deterministic", topo: func() Topology { return FatTree(4, 3) }, policy: PolicyDeterministic},
		{name: "ft-adaptive", topo: func() Topology { return FatTree(4, 3) }, policy: PolicyAdaptive},
		{name: "ft-prdrb", topo: func() Topology { return FatTree(4, 3) }, policy: PolicyPRDRB},
		{name: "torus-cyclic", topo: func() Topology { return Torus(4, 4) }, policy: PolicyCyclic},
		{name: "mesh-faulted", topo: func() Topology { return Mesh(4, 4) }, policy: PolicyDeterministic, faulted: true},
		{name: "ft-faulted-drb", topo: func() Topology { return FatTree(2, 3) }, policy: PolicyDRB, faulted: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var refFlows string
			var refOffered int64
			for _, shards := range []int{1, 2, 4} {
				_, flows, res := runShardScenario(t, sc, shards, nil)
				var total int
				for _, c := range flows {
					total += c
				}
				if total == 0 {
					t.Fatalf("shards=%d: nothing delivered", shards)
				}
				offered := res.DeliveredPkts + res.DroppedPkts
				if sc.faulted {
					// Conservation on the lossy path: every offered packet is
					// either delivered or accounted for as dropped.
					if res.DroppedPkts == 0 {
						t.Logf("shards=%d: fault preset saw no drops (timing-dependent)", shards)
					}
				} else if res.DroppedPkts != 0 {
					t.Fatalf("shards=%d: lossless preset dropped %d packets", shards, res.DroppedPkts)
				}
				if shards == 1 {
					refFlows, refOffered = flows.String(), offered
					continue
				}
				if !sc.faulted && flows.String() != refFlows {
					t.Errorf("shards=%d: delivered flows differ from serial\nserial: %s\nsharded: %s",
						shards, refFlows, flows.String())
				}
				if !sc.faulted && offered != refOffered {
					t.Errorf("shards=%d: offered+dropped total %d, serial %d", shards, offered, refOffered)
				}
				if sc.faulted {
					// Under faults the in-flight set at fail time shifts with
					// credit timing, so only per-run conservation is pinned:
					// delivered + dropped covers everything ever offered.
					if res.DeliveredPkts+res.DroppedPkts <= 0 {
						t.Errorf("shards=%d: conservation total %d", shards, res.DeliveredPkts+res.DroppedPkts)
					}
				}
			}
		})
	}
}

// TestShardOneMatchesSerial pins the reference tier: Shards=1 must take the
// exact historical serial code path, producing byte-identical summaries to
// a default (unsharded) build. The committed golden file already pins the
// default build, so this closes the loop Shards=1 == default == golden.
func TestShardOneMatchesSerial(t *testing.T) {
	sc := shardScenario{topo: func() Topology { return FatTree(4, 3) }, policy: PolicyPRFRDRB}
	serial, serialFlows, _ := runShardScenario(t, sc, 0, nil)
	one, oneFlows, _ := runShardScenario(t, sc, 1, nil)
	if serial != one {
		t.Fatalf("Shards=1 diverged from the serial engine:\nserial: %s\nshards=1: %s", serial, one)
	}
	if serialFlows.String() != oneFlows.String() {
		t.Fatalf("Shards=1 delivered different flows than the serial engine")
	}
}
