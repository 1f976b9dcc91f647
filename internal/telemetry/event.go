package telemetry

// Kind names a trace event type. The set covers the packet lifecycle
// (inject -> per-hop -> deliver/drop) and the PR-DRB control plane
// (saturation detection, metapath reconfiguration, solution-database
// traffic, fault transitions, recovery completion).
type Kind string

// Packet lifecycle events.
const (
	// KindInject: a data packet entered its source NIC queue.
	// pkt/src/dst set; val = packet size in bytes.
	KindInject Kind = "inject"
	// KindHop: the packet started transmission at a router output port
	// after waiting in its buffers. pkt/router/port set; dur = queue wait.
	KindHop Kind = "hop"
	// KindDeliver: the packet reached its destination NIC.
	// pkt/src/dst set; dur = end-to-end latency since creation.
	KindDeliver Kind = "deliver"
	// KindDrop: the packet died on a failed link. pkt/src/dst/router set.
	KindDrop Kind = "drop"
	// KindUnreachable: a message was refused at injection because no
	// healthy route existed. src/dst set.
	KindUnreachable Kind = "unreachable"
)

// PR-DRB control events (src is the controller's node, dst the metapath's
// destination unless stated otherwise).
const (
	// KindSaturation: a metapath entered the HIGH congestion zone.
	// dur = the metapath latency sample that crossed the threshold (0 when
	// the transition came from a latency-free signal: predictive ACK,
	// watchdog, path loss).
	KindSaturation Kind = "saturation"
	// KindMetapathOpen: an alternative path was opened. val = path count
	// after opening.
	KindMetapathOpen Kind = "mp-open"
	// KindMetapathClose: an alternative path was closed (relaxation or
	// dead-path pruning). val = path count after closing.
	KindMetapathClose Kind = "mp-close"
	// KindSolDBHit: a saved solution matched the current contention
	// pattern and was re-applied wholesale. val = database size.
	KindSolDBHit Kind = "soldb-hit"
	// KindSolDBMiss: the database had no match for a HIGH-zone entry.
	// val = database size.
	KindSolDBMiss Kind = "soldb-miss"
	// KindSolDBSave: the path set that resolved a congestion episode was
	// saved. val = database size after saving.
	KindSolDBSave Kind = "soldb-save"
	// KindRecovery: first successful ACK after a path failure — the
	// metapath recovered. dur = failure-to-recovery latency.
	KindRecovery Kind = "recovery"
	// KindPathFail: the controller learned one of its paths died
	// (in-flight loss or dead-path detection at injection).
	KindPathFail Kind = "path-fail"
	// KindWatchdog: the FR-DRB watchdog fired (outstanding traffic, no
	// ACK within the window).
	KindWatchdog Kind = "watchdog"
	// KindPredAck: a congested router originated predictive ACKs (GPA).
	// router/port set; val = number of contending flows reported.
	KindPredAck Kind = "pred-ack"
)

// Fault transitions (router/port set; val carries the degrade factor in
// thousandths for KindLinkDegrade).
const (
	KindLinkDown    Kind = "link-down"
	KindLinkUp      Kind = "link-up"
	KindLinkDegrade Kind = "link-degrade"
)

// Event is one trace record. Every field is always serialized (no
// omitempty): node 0 and router 0 are valid identities, and a fixed shape
// keeps the JSONL schema trivial and the byte stream deterministic.
// Fields that do not apply to a kind hold -1 (identities) or 0
// (durations/values).
type Event struct {
	// At is the virtual timestamp in nanoseconds.
	At int64 `json:"at"`
	// Run distinguishes simulations sharing one tracer (a sweep traces
	// several fixed-seed runs into one file); 0 for single-run traces.
	Run int `json:"run"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Pkt is the packet ID within the run, -1 for non-packet events.
	Pkt int64 `json:"pkt"`
	// Src / Dst are terminal node IDs (-1 when not applicable).
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Router / Port locate hop, drop, fault and GPA events (-1 otherwise).
	Router int `json:"router"`
	Port   int `json:"port"`
	// Dur is the event's duration payload in nanoseconds (queue wait,
	// end-to-end latency, recovery time); 0 when not applicable.
	Dur int64 `json:"dur"`
	// Val is the event's scalar payload (bytes, path count, DB size,
	// contending-flow count, degrade factor in thousandths).
	Val int64 `json:"val"`
	// Mpi is the §3.3.1 MPI_type header value of the packet's logical MPI
	// call for deliver events (network.MPITypeName names it); 0 for
	// non-packet events, untyped packets and traces recorded before the
	// field existed.
	Mpi int `json:"mpi"`
}
