// Package telemetry is the simulator's observability layer: event-level
// tracing of packet lifecycles and PR-DRB control decisions, a named
// counter/gauge registry snapshotted into machine-readable run manifests,
// and the schemas both artifacts validate against.
//
// The layer is wiring-time resolved: a simulation built without telemetry
// carries nil handles and pays nothing — no branches that allocate, no
// indirect calls — which the hot-path zero-alloc guard pins. With telemetry
// attached, every emission is a bounds-checked append onto an in-memory
// event log that the host process serializes after the run, as JSONL (one
// event per line, schema-validated) and as Chrome trace-event JSON so a run
// opens directly in Perfetto (ui.perfetto.dev).
//
// Determinism: events carry only virtual time and simulation state, never
// wall-clock time, so a fixed-seed run emits a byte-identical trace on
// every execution. Wall-clock, host and VCS provenance live in the run
// manifest, which is schema-validated rather than byte-compared.
package telemetry

// Options configures a telemetry bundle.
type Options struct {
	// Trace enables event tracing. Off, the bundle still carries a metrics
	// registry (for manifests without traces).
	Trace bool
	// Sample keeps 1-in-N packets in the trace (<=1 keeps every packet).
	// Control events (saturation, metapath, SolDB, fault, recovery) are
	// never sampled out — they are rare and each one matters.
	Sample int
}

// Telemetry bundles the tracer and the metrics registry a simulation is
// wired with. A nil *Telemetry (or a nil Tracer inside one) disables the
// corresponding half for free.
type Telemetry struct {
	// Tracer records packet and control events; nil when tracing is off.
	Tracer *Tracer
	// Registry holds the named gauges snapshotted into the
	// run manifest. Always non-nil.
	Registry *Registry
}

// New builds a telemetry bundle from opts.
func New(opts Options) *Telemetry {
	t := &Telemetry{Registry: NewRegistry()}
	if opts.Trace {
		t.Tracer = NewTracer(opts.Sample)
	}
	return t
}
