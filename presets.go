package prdrb

import (
	"io"

	"prdrb/internal/collectives"
	"prdrb/internal/core"
	"prdrb/internal/network"
	"prdrb/internal/phase"
	"prdrb/internal/placement"
	"prdrb/internal/provision"
	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/stats"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

// DefaultNetworkConfig returns the physical parameter set of Tables
// 4.2/4.3: 2 Gbps links, 2 MB buffers, 1024 B packets, virtual
// cut-through with credit backpressure.
func DefaultNetworkConfig() NetworkConfig { return network.DefaultConfig() }

// PRDRBPolicyConfig / FRDRBPolicyConfig return the per-variant policy
// defaults.
func PRDRBPolicyConfig() PolicyConfig { return core.PRDRBConfig() }
func FRDRBPolicyConfig() PolicyConfig { return core.FRDRBConfig() }

// TracePolicyConfig returns the named DRB-family configuration tuned for
// application-trace workloads (§4.8): thresholds scaled to the trace
// latency regime, no idle relaxation, deeper metapath. ok is false for
// non-DRB policy names.
func TracePolicyConfig(p Policy) (PolicyConfig, bool) { return runner.TracePolicyConfig(p) }

// MPI call identifiers for Trace.CallShare and packet MPI_type fields.
const (
	MPISend      = network.MPISend
	MPIIsend     = network.MPIIsend
	MPIRecv      = network.MPIRecv
	MPIIrecv     = network.MPIIrecv
	MPIWait      = network.MPIWait
	MPIWaitall   = network.MPIWaitall
	MPIBcast     = network.MPIBcast
	MPIReduce    = network.MPIReduce
	MPIAllreduce = network.MPIAllreduce
	MPIBarrier   = network.MPIBarrier
	MPISendrecv  = network.MPISendrecv
	MPIAlltoall  = network.MPIAlltoall

	MPIReduceScatter = network.MPIReduceScatter
	MPIAllgather     = network.MPIAllgather
)

// NewTraceBuilder starts an MPI-style logical trace for the given number
// of ranks.
func NewTraceBuilder(name string, ranks int) *TraceBuilder {
	return trace.NewBuilder(name, ranks)
}

// WorkloadOptions tunes the application-trace generators.
type WorkloadOptions = workloads.Options

// Workload generates an application trace by name: "nas-lu", "nas-mg-s",
// "nas-mg-a", "nas-mg-b", "lammps-chain", "lammps-comb", "pop", "sweep3d".
func Workload(name string, opt WorkloadOptions) (*Trace, error) {
	return workloads.ByName(name, opt)
}

// WorkloadNames lists the available application workloads.
func WorkloadNames() []string { return workloads.Names() }

// AllreduceAlgorithms lists the selectable MPI_Allreduce lowerings for
// TraceBuilder.AllreduceAlg and WorkloadOptions.Collective.
func AllreduceAlgorithms() []string { return collectives.AllreduceAlgorithms() }

// DefaultAllreduceAlgorithm names the algorithm Allreduce lowers to for an
// n-rank communicator when none is requested.
func DefaultAllreduceAlgorithm(n int) string { return collectives.DefaultAllreduce(n) }

// Seeds derives n reproducible seeds from a base, for the §4.3 multi-seed
// methodology.
func Seeds(n int, base uint64) []uint64 { return stats.Seeds(n, base) }

// GainPct is the paper's gain statement: percent reduction of measured vs
// baseline.
func GainPct(baseline, measured float64) float64 { return stats.GainPct(baseline, measured) }

// Summary is a multi-seed measurement: mean plus a 95% confidence
// half-interval (Student-t on n-1 dof, matching the small seed counts
// experiments actually run with).
type Summary = stats.Summary

// Summarize folds raw per-seed values into a Summary.
func Summarize(values []float64) Summary { return stats.Summarize(values) }

// WriteTrace serializes a logical trace in the text format of the
// application-characterization framework (Fig 4.19).
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteTrace(w, tr) }

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadTrace(r) }

// WriteGOAL serializes a dependency-graph schedule in the GOAL-style text
// format (send/recv/calc nodes with explicit `requires` edges).
func WriteGOAL(w io.Writer, g *Goal) error { return trace.WriteGOAL(w, g) }

// ReadGOAL parses and validates a GOAL-style schedule.
func ReadGOAL(r io.Reader) (*Goal, error) { return trace.ReadGOAL(r) }

// GoalFromTrace converts a sequential logical trace into an equivalent
// dependency-graph schedule (nonblocking operations become overlap edges).
func GoalFromTrace(tr *Trace) (*Goal, error) { return trace.GoalFromTrace(tr) }

// ReadKnowledge parses a solution-database snapshot written by
// Knowledge.WriteTo.
func ReadKnowledge(r io.Reader) (*Knowledge, error) { return core.ReadKnowledge(r) }

// Demand is the offline provisioning analysis of a workload over a
// topology (§5.2 "Provisioning" open line).
type Demand = provision.Demand

// AnalyzeDemand routes a workload's communication volume over the
// topology's deterministic paths and reports per-link demand, bottlenecks
// and the application's network footprint.
func AnalyzeDemand(topo Topology, tr *Trace, mapping []NodeID) (*Demand, error) {
	return provision.Analyze(topo, tr, mapping)
}

// OptimizePlacement searches for a rank->node mapping that minimizes the
// workload's byte-weighted hop distance over the topology (§3.1: routing
// performance depends on the pattern *and* the mapping). It returns the
// mapping and the percent cost reduction versus identity placement.
func OptimizePlacement(topo Topology, tr *Trace, seed uint64) ([]NodeID, float64, error) {
	m := phase.CommMatrix(tr)
	best, bestCost, err := placement.Optimize(topo, m, sim.NewRNG(seed))
	if err != nil {
		return nil, 0, err
	}
	idCost, err := placement.Cost(topo, m, placement.Identity(tr.Ranks))
	if err != nil {
		return nil, 0, err
	}
	return best, GainPct(float64(idCost), float64(bestCost)), nil
}

// EnergyModel / EnergyReport implement the §5.2 energy-aware analysis.
type (
	EnergyModel  = provision.EnergyModel
	EnergyReport = provision.EnergyReport
)

// DefaultEnergyModel returns QDR-class per-link power figures.
func DefaultEnergyModel() EnergyModel { return provision.DefaultEnergyModel() }
