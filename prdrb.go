// Package prdrb is a from-scratch reproduction of "Predictive and
// Distributed Routing Balancing for High Speed Interconnection Networks"
// (Núñez Castillo, Lugones, Franco, Luque — IEEE CLUSTER 2011 / UAB PhD
// thesis 2013).
//
// It bundles a deterministic discrete-event simulator of InfiniBand-style
// lossless fabrics (meshes, tori and k-ary n-tree fat-trees), the paper's
// routing-policy family — Distributed Routing Balancing (DRB), the
// predictive PR-DRB, the fast-response FR-DRB and the predictive layer on
// top of it — alongside the oblivious baselines (deterministic, random,
// cyclic-priority, minimal adaptive), synthetic permutation/hot-spot/bursty
// traffic, an MPI-style logical-trace replay engine with workload models of
// NAS LU/MG, LAMMPS, POP and Sweep3D, and the paper's metrics (global
// average latency, per-router contention latency, latency surface maps,
// throughput, execution time).
//
// # Quick start
//
//	exp := prdrb.Experiment{
//	    Topology: prdrb.FatTree(4, 3),       // 64 nodes
//	    Policy:   prdrb.PolicyPRDRB,
//	    Seed:     1,
//	}
//	sim, _ := prdrb.NewSim(exp)
//	sim.InstallPattern(prdrb.PatternSpec{
//	    Pattern: "shuffle", RateMbps: 400,
//	    Start: 0, End: 2 * prdrb.Millisecond,
//	})
//	res := sim.Execute(4 * prdrb.Millisecond)
//	fmt.Printf("global latency: %.1f us\n", res.GlobalLatencyUs)
//
// All behaviour is deterministic given (Experiment, workload): the same
// seed reproduces the same packet-level schedule.
//
// This package is a thin facade: simulation assembly lives in
// internal/runner, and every name here is an alias or one-line delegate so
// downstream users never need the internal packages.
package prdrb

import (
	"prdrb/internal/core"
	"prdrb/internal/network"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

// Re-exported time units (nanosecond-based virtual time).
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Aliases re-export the library types so downstream users never need the
// internal packages.
type (
	// Time is a simulation timestamp/duration in nanoseconds.
	Time = sim.Time
	// Topology is a network shape (mesh, torus, k-ary n-tree).
	Topology = topology.Topology
	// NodeID identifies a terminal (processing) node.
	NodeID = topology.NodeID
	// NetworkConfig carries the physical parameters (Tables 4.2/4.3).
	NetworkConfig = network.Config
	// PolicyConfig carries the DRB/PR-DRB knobs (thresholds, similarity,
	// watchdog).
	PolicyConfig = core.Config
	// Trace is an MPI-style logical trace.
	Trace = trace.Trace
	// TraceBuilder assembles traces.
	TraceBuilder = trace.Builder
	// Replay drives the network from a trace.
	Replay = trace.Replay
	// Goal is a GOAL-style per-rank dependency-graph schedule.
	Goal = trace.Goal

	// Policy names the routing policy under test.
	Policy = runner.Policy
	// Experiment describes one simulation configuration.
	Experiment = runner.Experiment
	// Sim is an assembled simulation ready to accept workloads.
	Sim = runner.Sim
	// Results summarizes a finished run.
	Results = runner.Results
	// PatternSpec schedules synthetic open-loop traffic by pattern name.
	PatternSpec = runner.PatternSpec
	// BurstSpec describes repeated communication bursts (Fig 2.6).
	BurstSpec = runner.BurstSpec
	// HeavyTailSpec schedules datacenter-style ON/OFF flow arrivals with
	// empirical heavy-tailed flow sizes and rack/group locality skew.
	HeavyTailSpec = runner.HeavyTailSpec
	// Scenario is an Experiment plus its traffic, faults, knowledge and
	// drain: Build assembles it, Run executes it.
	Scenario = runner.Scenario
	// HotSpotSpec is one set of colliding flows of a Scenario.
	HotSpotSpec = runner.HotSpotSpec
	// MappedTrace is a Scenario's trace and its rank placement.
	MappedTrace = runner.MappedTrace
	// Outcome is an executed Scenario: its Sim, Results and execution time.
	Outcome = runner.Outcome
	// Knowledge is a serializable snapshot of the PR-DRB solution databases —
	// the "static variation" of thesis §5.2. Export after a training run and
	// import into a fresh simulation so patterns are recognized from their
	// first occurrence.
	Knowledge = core.Knowledge
)

// The seven policies of the paper's evaluation (§4.8.4) plus minimal
// adaptive.
const (
	PolicyDeterministic = runner.PolicyDeterministic
	PolicyRandom        = runner.PolicyRandom
	PolicyCyclic        = runner.PolicyCyclic
	PolicyAdaptive      = runner.PolicyAdaptive
	PolicyDRB           = runner.PolicyDRB
	PolicyPRDRB         = runner.PolicyPRDRB
	PolicyFRDRB         = runner.PolicyFRDRB
	PolicyPRFRDRB       = runner.PolicyPRFRDRB
)

// Policies lists every supported policy name.
func Policies() []Policy { return runner.Policies() }

// Mesh returns a w x h 2-D mesh with one terminal per router.
func Mesh(w, h int) Topology { return topology.NewMesh(w, h) }

// Torus returns a w x h torus (closed mesh).
func Torus(w, h int) Topology { return topology.NewTorus(w, h) }

// FatTree returns a k-ary n-tree: k^n terminals, n levels of switches
// (FatTree(4, 3) is the paper's 64-node fat-tree).
func FatTree(k, n int) Topology { return topology.NewKAryNTree(k, n) }

// Torus3D returns an x*y*z 3-D torus (k-ary n-cube) with dateline virtual
// channels on every ring.
func Torus3D(x, y, z int) Topology { return topology.NewTorus3D(x, y, z) }

// Dragonfly returns a Dragonfly(a, g, h) with p terminals per router: g
// groups of a fully connected routers, h global channels per router
// (Dragonfly(16, 32, 8, 8) is the 4096-node datacenter shape).
func Dragonfly(a, g, h, p int) Topology { return topology.NewDragonfly(a, g, h, p) }

// Clos returns the three-tier full-bisection folded Clos built from
// radix-k switches: (k/2)^3 hosts (Clos(32) is the 4096-host fabric).
func Clos(k int) Topology { return topology.NewKAryNTree(k/2, 3) }

// TopologyByName resolves a compact spec string ("mesh-8x8", "torus3d-4x4x4",
// "ft-4-3", "clos-32", "df-16-32-8-8", ...) through the topology registry.
func TopologyByName(spec string) (Topology, error) { return topology.ByName(spec) }

// TopologySpecForms lists the spec grammars TopologyByName accepts.
func TopologySpecForms() []string { return topology.SpecForms() }

// NewSim builds the network, installs the routing policy and, for the DRB
// family, one source controller per node. Assembly itself lives in
// internal/runner's builder; this is the stable public entry point.
func NewSim(exp Experiment) (*Sim, error) { return runner.New(exp) }

// MustNewSim is NewSim that panics on error (examples, tests).
func MustNewSim(exp Experiment) *Sim { return runner.MustNew(exp) }
