package core

import (
	"fmt"
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
	id int // stable identifier carried in packets as MSPIndex
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
	// extraHops is the length excess over the direct path (Eq 3.2), charged
	// via Config.HopPenalty during selection.
	extraHops int
	acks      int64
}

// metapath is the per-destination path set of §3.2.3 plus the predictive
// evidence the PR- layer collects for it. Metapaths live in a metapathSlab
// and point into themselves (paths starts as direct[:]), so they are
// handed out by pointer and never copied. What a destination needs only
// once it opens a path, is reported or is watched lives in cold, which most
// metapaths never make.
type metapath struct {
	dst topology.NodeID
	// paths: index 0 is always the direct path. The solution database
	// copies these values in (Save) and restore copies them back out;
	// neither copies waypoints.
	paths []pathState
	// direct is the storage paths starts with: most metapaths never open
	// an alternative, and the first one opened moves paths to the heap.
	direct [1]pathState

	lastInject sim.Time
	// outstanding data packets without ACK, for the FR-DRB watchdog.
	outstanding int
	cold        *metapathCold
	zone        Zone
}

// metapathCold is the part of a metapath made on first need (coldState).
type metapathCold struct {
	// pool holds the topology's alternative-path candidates not yet opened.
	pool []topology.Path
	// directLen is the routed length of the direct path, set with the pool.
	directLen int
	// nextPathID is the stable identifier the next opened path gets.
	nextPathID int
	lastOpen   sim.Time

	// flowSeen timestamps the contending flows reported for this
	// destination (the pattern evidence, §3.2.7); made by the first report.
	flowSeen map[network.FlowKey]sim.Time
	// watchdog is the pending FR-DRB watchdog expiry, a typed event of the
	// controller (HandleEvent); the zero ID while unarmed.
	watchdog sim.EventID

	// failedAt is the time of the first unacknowledged loss notification,
	// zero once the next successful ACK closes the recovery window.
	failedAt sim.Time

	// trend holds the L(MP) history for the §5.2 trend predictor.
	trend    trendTracker
	poolInit bool
}

// metapathSlab hands out metapaths and their cold records from chunks, so
// opening the Nth destination costs no allocation of its own. One slab
// serves all controllers of a shard (Install): a slab per controller would
// strand a mostly empty chunk on each of thousands of sources. A nil slab
// allocates records one by one (controllers built by New alone).
type metapathSlab struct {
	chunk []metapath
	cold  []metapathCold
}

// Chunks of either record fill the 8 KiB size class; a 64-node fabric
// strands at most that much per shard and kind.
const (
	metapathChunk = 8192 / int(unsafe.Sizeof(metapath{}))
	coldChunk     = 8192 / int(unsafe.Sizeof(metapathCold{}))
)

// new returns the direct-path-only metapath toward dst.
func (s *metapathSlab) new(dst topology.NodeID, floor sim.Time) *metapath {
	var mp *metapath
	if s == nil {
		mp = new(metapath)
	} else {
		mp = take(&s.chunk, metapathChunk)
	}
	mp.dst = dst
	mp.direct[0].latNs = float64(floor)
	mp.paths = mp.direct[:]
	return mp
}

// coldState returns mp's cold record, making it from s on first need.
func (s *metapathSlab) coldState(mp *metapath) *metapathCold {
	if mp.cold != nil {
		return mp.cold
	}
	var cd *metapathCold
	if s == nil {
		cd = new(metapathCold)
	} else {
		cd = take(&s.cold, coldChunk)
	}
	cd.nextPathID = 1
	mp.cold = cd
	return cd
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

func newMetapath(dst topology.NodeID, floor sim.Time) *metapath {
	return (*metapathSlab)(nil).new(dst, floor)
}

// latency returns the metapath latency L(MP) of Eq 3.4 in ns: the inverse
// of the summed inverse path latencies (paths in parallel act as aggregated
// capacity).
func (mp *metapath) latency(floor float64) float64 {
	inv := 0.0
	for i := range mp.paths {
		l := mp.paths[i].latNs
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

// selectPath draws a path index from the Eq 3.6 probability density.
// usable, when non-nil, excludes paths that currently cross failed links;
// if every path is excluded the unfiltered draw applies (the packet will
// be lost and the loss notification drives reconfiguration).
func (mp *metapath) selectPath(cfg *Config, rng *sim.RNG, usable func(p *pathState) bool) *pathState {
	if len(mp.paths) == 1 {
		return &mp.paths[0]
	}
	total := 0.0
	feasible := 0
	for i := range mp.paths {
		if usable != nil && !usable(&mp.paths[i]) {
			continue
		}
		feasible++
		total += mp.paths[i].weight(cfg)
	}
	if feasible == 0 {
		usable = nil
		for i := range mp.paths {
			total += mp.paths[i].weight(cfg)
		}
	}
	x := rng.Float64() * total
	last := &mp.paths[0]
	for i := range mp.paths {
		if usable != nil && !usable(&mp.paths[i]) {
			continue
		}
		last = &mp.paths[i]
		x -= mp.paths[i].weight(cfg)
		if x <= 0 {
			return last
		}
	}
	return last
}

// byID finds a path by its stable identifier; nil if it has been closed.
func (mp *metapath) byID(id int) *pathState {
	for i := range mp.paths {
		if mp.paths[i].id == id {
			return &mp.paths[i]
		}
	}
	return nil
}

// observe folds an ACK's path latency into the identified path (EWMA).
func (mp *metapath) observe(cfg *Config, id int, lat sim.Time) {
	p := mp.byID(id)
	if p == nil {
		return
	}
	sample := float64(lat)
	if sample < float64(cfg.LatencyFloor) {
		sample = float64(cfg.LatencyFloor)
	}
	if p.acks == 0 {
		p.latNs = sample
	} else {
		p.latNs = cfg.Alpha*sample + (1-cfg.Alpha)*p.latNs
	}
	p.acks++
}

// restore replaces the path set with a saved solution, assigning fresh
// stable IDs (old ACKs must not credit restored paths) from mp's cold
// record, made from s if need be. It copies the path states, not their
// waypoints: those are immutable and already shared (pathState.path).
func (mp *metapath) restore(s *metapathSlab, saved []pathState) {
	cd := s.coldState(mp)
	mp.paths = mp.paths[:0]
	for _, p := range saved {
		p.id = 0
		if len(p.path) > 0 {
			p.id = cd.nextPathID
			cd.nextPathID++
		}
		p.acks = 0
		mp.paths = append(mp.paths, p)
	}
}

func (mp *metapath) String() string {
	return fmt.Sprintf("mp(dst=%d, %d paths, zone=%s)", mp.dst, len(mp.paths), mp.zone)
}
