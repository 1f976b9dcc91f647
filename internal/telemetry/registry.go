package telemetry

// HistSnapshot is a point-in-time histogram state for exposition:
// cumulative sample counts at ascending upper bounds, plus the total count
// and the sum of all samples. Bounds may cover any subset of the source
// histogram's buckets as long as counts stay cumulative — the Prometheus
// bucket contract.
type HistSnapshot struct {
	// Bounds are bucket upper bounds in ascending order (the `le` label
	// values); Counts[i] is the number of samples <= Bounds[i].
	Bounds []float64
	Counts []int64
	// Count is the total number of samples (the implicit +Inf bucket);
	// Sum is the sum of every sample.
	Count int64
	Sum   float64
}

// Registry is a wiring-time metrics registry: gauges and histograms read
// through callbacks at snapshot time. Gauges make existing state (engine
// counters, pool high-water marks, controller stats) observable with zero
// hot-path cost — nothing is recorded until a snapshot is taken.
//
// The registry is not safe for concurrent use: each simulation wires its
// own, and a sweep sharing one must snapshot between runs.
type Registry struct {
	gauges map[string]func() int64
	hists  map[string]func() HistSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]func() int64),
		hists:  make(map[string]func() HistSnapshot),
	}
}

// Gauge registers fn as the reader of the named gauge. Re-registering a
// name replaces the reader (a sweep re-wiring per run keeps the latest
// simulation's view).
func (r *Registry) Gauge(name string, fn func() int64) {
	r.gauges[name] = fn
}

// Histogram registers fn as the reader of the named distribution.
// Re-registering a name replaces the reader, mirroring Gauge.
func (r *Registry) Histogram(name string, fn func() HistSnapshot) {
	r.hists[name] = fn
}

// SnapshotHistograms evaluates every registered histogram reader into a
// name -> snapshot map.
func (r *Registry) SnapshotHistograms() map[string]HistSnapshot {
	if len(r.hists) == 0 {
		return nil
	}
	out := make(map[string]HistSnapshot, len(r.hists))
	for n, fn := range r.hists {
		out[n] = fn()
	}
	return out
}

// Snapshot evaluates every gauge into a name -> value map.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(r.gauges))
	for n, fn := range r.gauges {
		out[n] = fn()
	}
	return out
}
