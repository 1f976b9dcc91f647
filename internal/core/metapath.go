package core

import (
	"math/bits"
	"slices"
	"unsafe"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Zone is the congestion zone of Eq 3.5 / Fig 3.9.
type Zone uint8

// Zones: low latency (paths can close), the normal working zone, and high
// latency (congestion; paths must open).
const (
	ZoneLow Zone = iota
	ZoneMedium
	ZoneHigh
)

func (z Zone) String() string {
	switch z {
	case ZoneLow:
		return "L"
	case ZoneMedium:
		return "M"
	default:
		return "H"
	}
}

// pathState is one multistep path of a metapath with its estimated latency.
type pathState struct {
	// path holds the waypoints; empty = the original path. The backing
	// array is immutable from the moment the path is opened: it may be
	// PathCache storage shared by every controller of the shard, and every
	// in-flight packet injected on this path aliases it
	// (Packet.Waypoints, see PrepareInjection), as do the solution
	// database's saved path sets and the metapaths they are restored
	// into. Only Controller.Paths, which hands waypoints to callers
	// outside the package, copies them.
	path topology.Path
	// latNs is the EWMA of ACK-reported path latency in ns, floored.
	latNs float64
	id    int32 // stable identifier carried in packets as MSPIndex
	// extraHops is the length excess over the direct path (Eq 3.2), charged
	// via Config.HopPenalty during selection.
	extraHops int16
	// observed is set by the first ACK folded into latNs.
	observed bool
}

// metapath is the per-destination path set of §3.2.3 plus the predictive
// evidence the PR- layer collects for it. Metapaths live in the shard's
// chunks and index, keyed by their own (src, dst), and are never copied.
// Most never open an alternative, so the direct path's state lives inline
// until one opens or a solution is restored. What a destination needs only
// once it opens a path, is reported or is watched lives in cold, the path
// set among it: a direct-only destination carries no slice header.
type metapath struct {
	src, dst int32
	// outstanding data packets without ACK, for the FR-DRB watchdog.
	outstanding int32
	zone        Zone
	// observed and latNs are the direct path's state while the path set
	// (cold.paths) is empty.
	observed   bool
	latNs      float64
	lastInject sim.Time
	cold       *metapathCold
}

// metapathCold is the part of a metapath made on first need (coldState).
type metapathCold struct {
	// paths is empty while only the direct path is open; otherwise index
	// 0 is the direct path. The solution database copies these values in
	// (Save) and restore copies them back out; neither copies waypoints.
	paths []pathState
	// pool holds the topology's alternative-path candidates not yet opened.
	pool []topology.Path
	// flowSeen holds the contending flows reported (the evidence, §3.2.7).
	flowSeen []flowStamp
	lastOpen sim.Time
	// failedAt is the time of the first unacknowledged loss notification,
	// zero once the next successful ACK closes the recovery window.
	failedAt sim.Time
	// watchdog is the pending FR-DRB watchdog expiry, a typed event of the
	// controller (HandleEvent); the zero ID while unarmed.
	watchdog sim.EventID
	// trend is the §5.2 predictor's L(MP) history, made by its first sample.
	trend *trendTracker
	// directLen is the routed length of the direct path, set with the pool.
	directLen int32
	// nextPathID is the stable identifier the next opened path gets.
	nextPathID int32
	poolInit   bool
}

// flowStamp is a contending flow and when it was last reported.
type flowStamp struct {
	flow network.FlowKey
	at   sim.Time
}

// see records that flow f was reported at now.
func (cd *metapathCold) see(f network.FlowKey, now sim.Time) {
	if i := slices.IndexFunc(cd.flowSeen, func(s flowStamp) bool { return s.flow == f }); i >= 0 {
		cd.flowSeen[i].at = now
	} else {
		cd.flowSeen = append(cd.flowSeen, flowStamp{f, now})
	}
}

// Chunks of either record fill the 8 KiB size class; a 64-node fabric
// strands at most that much per shard and kind.
const (
	metapathChunk = 8192 / int(unsafe.Sizeof(metapath{}))
	coldChunk     = 8192 / int(unsafe.Sizeof(metapathCold{}))
)

// coldState returns mp's cold record, made from the shard's chunks.
func (sh *shardState) coldState(mp *metapath) *metapathCold {
	if mp.cold == nil {
		mp.cold = take(&sh.cold, coldChunk)
		mp.cold.nextPathID = 1
	}
	return mp.cold
}

// take returns the next zero record of *chunk, starting a new chunk of n
// records when it is full.
func take[T any](chunk *[]T, n int) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, n)
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// metapathIndex finds a shard's metapaths by (source, destination): an
// open-addressed table of the records themselves, each carrying its own
// key, in place of a map per controller. Records are never removed.
type metapathIndex struct {
	slots []*metapath // empty or a power of two long, at most 3/4 full
	n     int
}

// get returns src's metapath toward dst, nil if it has none.
func (x *metapathIndex) get(src, dst int32) *metapath {
	if len(x.slots) == 0 {
		return nil
	}
	return *x.slot(src, dst)
}

// slot returns the slot holding (src, dst), or the empty one it would take;
// the probe starts where Fibonacci hashing of the pair points.
func (x *metapathIndex) slot(src, dst int32) **metapath {
	shift := 64 - bits.TrailingZeros(uint(len(x.slots)))
	i := int((uint64(uint32(src))<<32 | uint64(uint32(dst))) * 0x9e3779b97f4a7c15 >> shift)
	for ; ; i = (i + 1) & (len(x.slots) - 1) {
		if mp := x.slots[i]; mp == nil || mp.src == src && mp.dst == dst {
			return &x.slots[i]
		}
	}
}

// add indexes mp, whose (src, dst) must not be indexed yet.
func (x *metapathIndex) add(mp *metapath) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]*metapath, max(64, 2*len(old)))
		for _, o := range old {
			if o != nil {
				*x.slot(o.src, o.dst) = o
			}
		}
	}
	*x.slot(mp.src, mp.dst) = mp
	x.n++
}

// pathSet returns the open path states, direct path first; empty while
// only the direct path is open.
func (mp *metapath) pathSet() []pathState {
	if mp.cold == nil {
		return nil
	}
	return mp.cold.paths
}

// states returns the path states, direct path first. A direct-only
// metapath's state is copied into *one, for reading.
func (mp *metapath) states(one *[1]pathState) []pathState {
	if paths := mp.pathSet(); len(paths) > 0 {
		return paths
	}
	one[0] = pathState{latNs: mp.latNs, observed: mp.observed}
	return one[:]
}

// spill moves the inline direct-path state into the path set, before the
// first alternative opens, and returns the cold record holding the set,
// made from sh if need be.
func (mp *metapath) spill(sh *shardState) *metapathCold {
	cd := sh.coldState(mp)
	if len(cd.paths) == 0 {
		cd.paths = append(slices.Grow(cd.paths, 2), pathState{latNs: mp.latNs, observed: mp.observed})
	}
	return cd
}

// latency returns the metapath latency L(MP) of Eq 3.4 in ns: the inverse
// of the summed inverse path latencies (paths in parallel act as aggregated
// capacity).
func (mp *metapath) latency(floor float64) float64 {
	var one [1]pathState
	inv := 0.0
	for _, p := range mp.states(&one) {
		l := p.latNs
		if l < floor {
			l = floor
		}
		inv += 1 / l
	}
	if inv == 0 {
		return floor
	}
	return 1 / inv
}

// weight is the selection weight of one path: inverse of its latency with
// the length penalty applied (§3.2.6: lower latency and shorter paths are
// preferred).
func (p *pathState) weight(cfg *Config) float64 {
	l := p.latNs + float64(p.extraHops)*float64(cfg.HopPenalty)
	if l < float64(cfg.LatencyFloor) {
		l = float64(cfg.LatencyFloor)
	}
	return 1 / l
}

// byID finds a path of paths by its stable identifier; nil if it has been
// closed.
func (mp *metapath) byID(id int32) *pathState {
	paths := mp.pathSet()
	for i := range paths {
		if paths[i].id == id {
			return &paths[i]
		}
	}
	return nil
}

// observe folds an ACK's path latency into the identified path (EWMA).
func (mp *metapath) observe(cfg *Config, id int32, lat sim.Time) {
	latNs, observed := &mp.latNs, &mp.observed
	if len(mp.pathSet()) > 0 {
		p := mp.byID(id)
		if p == nil {
			return
		}
		latNs, observed = &p.latNs, &p.observed
	} else if id != 0 {
		return
	}
	sample := float64(lat)
	if sample < float64(cfg.LatencyFloor) {
		sample = float64(cfg.LatencyFloor)
	}
	if !*observed {
		*latNs = sample
	} else {
		*latNs = cfg.Alpha*sample + (1-cfg.Alpha)**latNs
	}
	*observed = true
}

// restore replaces the path set with a saved solution, assigning fresh
// stable IDs (old ACKs must not credit restored paths) from mp's cold
// record, made from sh if need be. It copies the path states, not their
// waypoints: those are immutable and already shared (pathState.path).
func (mp *metapath) restore(sh *shardState, saved []pathState) {
	cd := sh.coldState(mp)
	cd.paths = append(cd.paths[:0], saved...)
	for i := range cd.paths {
		p := &cd.paths[i]
		p.id = 0
		if len(p.path) > 0 {
			p.id = cd.nextPathID
			cd.nextPathID++
		}
		p.observed = false
	}
}
