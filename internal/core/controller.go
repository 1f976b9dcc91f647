package core

import (
	"cmp"
	"slices"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
	"prdrb/internal/topology"
)

// Stats counts the controller's decisions, matching the quantities the
// paper reports per router/application (e.g. patterns found/repeated in
// Figs 4.26b, §4.8.4).
type Stats struct {
	PathsOpened   int64
	PathsClosed   int64
	PatternsSaved int64
	// PatternsReused counts distinct saved solutions that were re-applied
	// at least once; ReuseApplications counts every application.
	PatternsReused    int64
	ReuseApplications int64
	WatchdogFirings   int64
	AcksSeen          int64
	PredictiveAcks    int64
	// TrendFirings counts early reactions triggered by the latency-trend
	// predictor (§5.2 extension).
	TrendFirings int64
	// PathFailures counts packet-loss notifications received from the
	// fabric (a path died under our traffic).
	PathFailures int64
	// SolutionsInvalidated counts saved solutions discarded because their
	// path set crossed a failed link.
	SolutionsInvalidated int64
	// Recoveries counts completed failure-to-recovery cycles (first
	// successful ACK after a loss event).
	Recoveries int64
}

// Add accumulates other into s (for fleet-wide aggregation).
func (s *Stats) Add(other Stats) {
	s.PathsOpened += other.PathsOpened
	s.PathsClosed += other.PathsClosed
	s.PatternsSaved += other.PatternsSaved
	s.PatternsReused += other.PatternsReused
	s.ReuseApplications += other.ReuseApplications
	s.WatchdogFirings += other.WatchdogFirings
	s.AcksSeen += other.AcksSeen
	s.PredictiveAcks += other.PredictiveAcks
	s.TrendFirings += other.TrendFirings
	s.PathFailures += other.PathFailures
	s.SolutionsInvalidated += other.SolutionsInvalidated
	s.Recoveries += other.Recoveries
}

// Controller is the per-source-node DRB / PR-DRB engine. It implements
// network.SourceController. What it shares with the shard's other
// controllers lives in their shardState.
type Controller struct {
	Node topology.NodeID
	sh   *shardState
	rng  sim.RNG
	db   *SolutionDB

	Stats Stats
}

// shardState is what the controllers of one shard share. They all run on
// the shard's engine goroutine, so none of it needs a lock.
type shardState struct {
	cfg  Config
	topo topology.Topology
	eng  *sim.Engine
	// pathCheck, when set, reports whether a multistep path crosses only
	// live links; selection, opening and reuse filter through it.
	pathCheck func(src, dst topology.NodeID, p topology.Path) bool
	// pathCache, when set, enumerates alternative paths for all the shard's
	// sources; its per-pair budget must be the 2 × cfg.MaxPaths they use.
	pathCache *topology.PathCache
	// onRecovery, when set, observes each loss-to-next-ACK recovery latency.
	onRecovery func(d sim.Time)
	trace      *telemetry.Tracer         // control events; nil = tracing off
	rec        *telemetry.FlightRecorder // path open/close; nil = recorder off
	// chunk and cold hand out metapaths and cold records (take): a new
	// destination costs no allocation, and no source strands a chunk.
	chunk []metapath
	cold  []metapathCold
	index metapathIndex
	// sigBuf is evidence's scratch, holding its signature until the next call.
	sigBuf []network.FlowKey
}

// New builds a controller for one source node with a shard context of its
// own and a copy of rng's state. It panics on an invalid configuration (a
// policy bug, not an input condition).
func New(node topology.NodeID, topo topology.Topology, eng *sim.Engine, cfg Config, rng *sim.RNG) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{Node: node, sh: &shardState{cfg: cfg, topo: topo, eng: eng}, rng: *rng}
	if cfg.Predictive {
		c.db = NewSolutionDB()
	}
	return c
}

// Name implements network.SourceController.
func (c *Controller) Name() string {
	switch cfg := &c.sh.cfg; {
	case cfg.Predictive && cfg.Watchdog > 0:
		return "pr-fr-drb"
	case cfg.Predictive:
		return "pr-drb"
	case cfg.Watchdog > 0:
		return "fr-drb"
	default:
		return "drb"
	}
}

// DB exposes the solution database (nil for non-predictive variants).
func (c *Controller) DB() *SolutionDB { return c.db }

// find returns the metapath toward dst, nil if there is none yet.
func (c *Controller) find(dst topology.NodeID) *metapath {
	return c.sh.index.get(int32(c.Node), int32(dst))
}

func (c *Controller) metapathFor(dst topology.NodeID) *metapath {
	mp := c.find(dst)
	if mp == nil {
		mp = take(&c.sh.chunk, metapathChunk)
		mp.src, mp.dst, mp.latNs = int32(c.Node), int32(dst), float64(c.sh.cfg.LatencyFloor)
		c.sh.index.add(mp)
	}
	return mp
}

// PrepareInjection implements network.SourceController: multistep path
// selection (Fig 3.11, Alg A.3). A destination idle beyond IdleReset first
// relaxes back to the direct path (the inter-burst closing of Fig 3.1).
func (c *Controller) PrepareInjection(e *sim.Engine, pkt *network.Packet) {
	mp := c.metapathFor(pkt.Dst)
	if c.sh.cfg.IdleReset > 0 && mp.lastInject != 0 && e.Now()-mp.lastInject > c.sh.cfg.IdleReset {
		c.relax(mp)
	}
	mp.lastInject = e.Now()
	path, id := c.selectPath(mp)
	if c.sh.pathCheck != nil && !c.sh.pathCheck(c.Node, pkt.Dst, path) {
		// Every open path crosses a failed link: the transport can see the
		// injection is doomed before the fabric drops anything. React now —
		// same actions as a loss notification — then reselect, which finds
		// any feasible detour the reconfiguration just opened.
		c.Stats.PathFailures++
		c.pathLost(e, mp)
		path, id = c.selectPath(mp)
	}
	// No copy: a path's waypoints are immutable once it is open (see
	// pathState.path), for as long as any packet carries them.
	pkt.Waypoints = path
	pkt.MSPIndex = id
	mp.outstanding++
	if c.sh.cfg.Watchdog > 0 {
		if cd := c.sh.coldState(mp); !cd.watchdog.Valid() {
			c.armWatchdog(e, cd, pkt.Dst)
		}
	}
}

// ctlEvWatchdog is the controller's one typed event kind: the FR-DRB
// watchdog of the destination in arg expired.
const ctlEvWatchdog uint8 = 0

// HandleEvent implements sim.Actor.
func (c *Controller) HandleEvent(e *sim.Engine, _ uint8, arg uint64) {
	mp := c.find(topology.NodeID(arg))
	mp.cold.watchdog = sim.EventID{}
	c.watchdogExpired(e, mp)
}

// armWatchdog (re)arms dst's watchdog to expire Watchdog from now,
// cancelling a pending expiry.
func (c *Controller) armWatchdog(e *sim.Engine, cd *metapathCold, dst topology.NodeID) {
	c.stopWatchdog(e, cd)
	cd.watchdog = e.AfterEvent(c.sh.cfg.Watchdog, c, ctlEvWatchdog, uint64(dst))
}

// stopWatchdog cancels a pending watchdog expiry, if any.
func (c *Controller) stopWatchdog(e *sim.Engine, cd *metapathCold) {
	if cd.watchdog.Valid() {
		e.Cancel(cd.watchdog)
		cd.watchdog = sim.EventID{}
	}
}

// HandleAck implements network.SourceController: metapath configuration
// (Fig 3.8, Alg A.2) driven by destination or router notifications.
func (c *Controller) HandleAck(e *sim.Engine, ack *network.Packet) {
	c.Stats.AcksSeen++
	// ack.Src is the data flow's destination (the node that ACKed, or, for
	// router-injected predictive ACKs, the contended flow's destination).
	mp := c.metapathFor(ack.Src)

	if ack.Predictive {
		c.Stats.PredictiveAcks++
	}
	// Fold in contending-flow evidence (§3.2.7); only the predictive layer
	// ever reads it (evidence).
	if flows := ack.Contending(); c.sh.cfg.Predictive && len(flows) > 0 {
		cd := c.sh.coldState(mp)
		for _, f := range flows {
			cd.see(f, e.Now())
		}
	}

	if ack.MSPIndex >= 0 {
		cd := mp.cold
		if cd != nil && cd.failedAt != 0 {
			// First successful delivery ACK after a loss: the metapath has
			// recovered; report the end-to-end recovery latency.
			c.Stats.Recoveries++
			if c.sh.onRecovery != nil {
				c.sh.onRecovery(e.Now() - cd.failedAt)
			}
			c.sh.trace.Control(e.Now(), telemetry.KindRecovery, int(c.Node), int(mp.dst), e.Now()-cd.failedAt, 0)
			cd.failedAt = 0
		}
		mp.observe(&c.sh.cfg, ack.MSPIndex, ack.PathLatency)
		if mp.outstanding > 0 {
			mp.outstanding--
		}
		if cd != nil && c.sh.cfg.Watchdog > 0 {
			if mp.outstanding > 0 {
				c.armWatchdog(e, cd, ack.Src)
			} else {
				c.stopWatchdog(e, cd)
			}
		}
		c.evaluate(e, mp)
		c.observeTrend(e, mp)
	} else if ack.Predictive {
		// Router-based early notification (§3.4.1): no per-path latency,
		// but an unambiguous congestion signal — force the H actions now.
		c.enterHigh(e, mp)
	}
}

// zoneOf classifies a metapath latency against the thresholds (Eq 3.5).
func (c *Controller) zoneOf(latNs float64) Zone {
	switch {
	case latNs > float64(c.sh.cfg.ThresholdHigh):
		return ZoneHigh
	case latNs < float64(c.sh.cfg.ThresholdLow):
		return ZoneLow
	default:
		return ZoneMedium
	}
}

// evaluate advances the metapath-configuration FSM (Fig 3.12).
func (c *Controller) evaluate(e *sim.Engine, mp *metapath) {
	lat := mp.latency(float64(c.sh.cfg.LatencyFloor))
	z := c.zoneOf(lat)
	old := mp.zone
	mp.zone = z
	switch {
	case z == ZoneHigh:
		if old != ZoneHigh {
			// M->H: congestion detected. Predictive variants first look for
			// an already analyzed situation (§3.2.6).
			c.sh.trace.Control(e.Now(), telemetry.KindSaturation, int(c.Node), int(mp.dst), sim.Time(lat), 0)
			if c.sh.cfg.Predictive && c.tryReuse(e, mp) {
				return
			}
		}
		c.maybeOpen(e, mp)
	case old == ZoneHigh:
		// H->M / H->L: good paths found; the predictive layer saves them.
		if c.sh.cfg.Predictive {
			c.saveSolution(e, mp)
		}
		if z == ZoneLow {
			c.maybeClose(mp)
		}
	case z == ZoneLow && old != ZoneLow:
		// M->L: the network absorbs the traffic; shrink the metapath.
		c.maybeClose(mp)
	case z == ZoneLow && len(mp.paths) > 1:
		c.maybeClose(mp)
	}
}

// enterHigh applies the M->H actions unconditionally (used by router-based
// predictive ACKs and the FR-DRB watchdog, both of which signal congestion
// without a metapath-latency sample).
func (c *Controller) enterHigh(e *sim.Engine, mp *metapath) {
	was := mp.zone
	mp.zone = ZoneHigh
	if was != ZoneHigh {
		c.sh.trace.Control(e.Now(), telemetry.KindSaturation, int(c.Node), int(mp.dst), 0, 0)
		if c.sh.cfg.Predictive && c.tryReuse(e, mp) {
			return
		}
	}
	c.maybeOpen(e, mp)
}

// watchdogExpired is the FR-DRB fast response (§4.8.4): outstanding traffic
// with no ACK within the window means the notification itself is stuck in
// congestion; react immediately.
func (c *Controller) watchdogExpired(e *sim.Engine, mp *metapath) {
	if mp.outstanding == 0 {
		return
	}
	c.Stats.WatchdogFirings++
	c.sh.trace.Control(e.Now(), telemetry.KindWatchdog, int(c.Node), int(mp.dst), 0, 0)
	c.enterHigh(e, mp)
	c.armWatchdog(e, mp.cold, topology.NodeID(mp.dst))
}

// usable reports whether p toward mp's destination crosses only live links.
func (c *Controller) usable(mp *metapath, p topology.Path) bool {
	return c.sh.pathCheck == nil || c.sh.pathCheck(c.Node, topology.NodeID(mp.dst), p)
}

// selectPath draws a path of mp from the Eq 3.6 density, excluding paths
// that cross failed links unless all do (then the packet is lost and the
// loss notification drives reconfiguration), and returns its waypoints
// and identifier.
func (c *Controller) selectPath(mp *metapath) (topology.Path, int32) {
	if len(mp.paths) <= 1 {
		return nil, 0 // the direct path
	}
	cfg, filter := &c.sh.cfg, c.sh.pathCheck != nil
	total, feasible := 0.0, 0
	for i := range mp.paths {
		if filter && !c.usable(mp, mp.paths[i].path) {
			continue
		}
		feasible++
		total += mp.paths[i].weight(cfg)
	}
	if feasible == 0 {
		filter = false
		for i := range mp.paths {
			total += mp.paths[i].weight(cfg)
		}
	}
	x := c.rng.Float64() * total
	last := &mp.paths[0]
	for i := range mp.paths {
		if filter && !c.usable(mp, mp.paths[i].path) {
			continue
		}
		last = &mp.paths[i]
		if x -= last.weight(cfg); x <= 0 {
			break
		}
	}
	return last.path, last.id
}

// HandlePacketLoss implements network.FailureAware: a packet of ours died
// on a failed link. This is the loss-of-ack signal treated as a HIGH-zone
// event (the fabric itself told us the path is gone, stronger evidence
// than any latency sample): the dead paths are pruned, saved solutions
// that depend on them are invalidated, and the metapath reselects.
func (c *Controller) HandlePacketLoss(e *sim.Engine, pkt *network.Packet) {
	dst := pkt.Dst
	if pkt.Type == network.AckPacket {
		// A lost ACK was heading back to us; the metapath it reported on
		// is the one toward the ACK's sender.
		dst = pkt.Src
	}
	mp := c.metapathFor(dst)
	c.Stats.PathFailures++
	if mp.outstanding > 0 {
		mp.outstanding--
	}
	c.pathLost(e, mp)
}

// pathLost runs the reconfiguration shared by the two failure signals
// (in-flight drop, dead-path-at-injection): start the recovery clock,
// prune dead paths, invalidate dependent saved solutions, rebuild the
// candidate pool and force the H-zone actions.
func (c *Controller) pathLost(e *sim.Engine, mp *metapath) {
	cd := c.sh.coldState(mp)
	if cd.failedAt == 0 {
		cd.failedAt = e.Now()
	}
	c.sh.trace.Control(e.Now(), telemetry.KindPathFail, int(c.Node), int(mp.dst), 0, 0)
	c.pruneDeadPaths(mp)
	if c.db != nil {
		c.Stats.SolutionsInvalidated += int64(c.db.Invalidate(int(mp.dst), func(p topology.Path) bool {
			return c.usable(mp, p)
		}))
	}
	// The candidate pool predates the failure; rebuild it on demand so the
	// reopened aperture only offers feasible detours.
	cd.pool = nil
	cd.poolInit = false
	c.enterHigh(e, mp)
}

// pruneDeadPaths closes every alternative path that now crosses a failed
// link. The direct path (index 0) is structural and never removed; when
// infeasible it is simply excluded from selection.
func (c *Controller) pruneDeadPaths(mp *metapath) {
	if c.sh.pathCheck == nil || len(mp.paths) <= 1 {
		return
	}
	kept := mp.paths[:1]
	pruned := 0
	for _, p := range mp.paths[1:] {
		if c.usable(mp, p.path) {
			kept = append(kept, p)
		} else {
			c.Stats.PathsClosed++
			pruned++
		}
	}
	mp.paths = kept
	if pruned > 0 {
		c.sh.trace.Control(c.sh.eng.Now(), telemetry.KindMetapathClose, int(c.Node), int(mp.dst), 0, int64(len(mp.paths)))
		c.recordFlight(telemetry.FlightPathClose, mp.dst, len(mp.paths))
	}
}

// recordFlight feeds one metapath transition into the flight recorder.
func (c *Controller) recordFlight(kind string, dst int32, paths int) {
	if c.sh.rec == nil {
		return
	}
	c.sh.rec.Record(telemetry.FlightEvent{
		AtNs: int64(c.sh.eng.Now()), Kind: kind, Router: -1, Port: -1, VC: -1,
		Src: int(c.Node), Dst: int(dst), Val: int64(paths),
	})
}

// maybeOpen grows the metapath by one alternative path (§3.2.3), respecting
// MaxPaths and the open-rate limit. The interval is jittered ±25% per
// decision: at scale, hundreds of controllers otherwise react to the same
// congestion signal in lockstep and thrash the load from one region to
// another in synchronized waves.
func (c *Controller) maybeOpen(e *sim.Engine, mp *metapath) {
	if max(1, len(mp.paths)) >= c.sh.cfg.MaxPaths {
		return
	}
	cd := c.sh.coldState(mp)
	if cd.lastOpen != 0 {
		jittered := sim.Time(float64(c.sh.cfg.OpenInterval) * (0.75 + 0.5*c.rng.Float64()))
		if e.Now()-cd.lastOpen < jittered {
			return
		}
	}
	dst := topology.NodeID(mp.dst)
	if !cd.poolInit {
		cd.pool = c.enumeratePaths(dst)
		cd.poolInit = true
		cd.directLen = int32(topology.PathLength(c.sh.topo, c.Node, dst, nil))
	}
	// Skip candidates already open or currently infeasible (failed links).
	for len(cd.pool) > 0 {
		cand := cd.pool[0]
		cd.pool = cd.pool[1:]
		if mp.hasPath(cand) || !c.usable(mp, cand) {
			continue
		}
		mp.spill()
		mp.paths = append(mp.paths, pathState{
			id:        cd.nextPathID,
			path:      cand,
			latNs:     mp.currentBest(), // optimistic: probe the new path
			extraHops: int16(int32(topology.PathLength(c.sh.topo, c.Node, dst, cand)) - cd.directLen),
		})
		cd.nextPathID++
		cd.lastOpen = e.Now()
		c.Stats.PathsOpened++
		c.sh.trace.Control(e.Now(), telemetry.KindMetapathOpen, int(c.Node), int(mp.dst), 0, int64(len(mp.paths)))
		c.recordFlight(telemetry.FlightPathOpen, mp.dst, len(mp.paths))
		return
	}
}

// enumeratePaths fetches the alternative-path pool for dst, through the
// shared PathCache when one is wired, else straight from the topology.
// Both return shared immutable slices: the pool is consumed by re-slicing
// (pool[1:]) and an opened path is only ever read, so aliasing the
// cache's storage is safe.
func (c *Controller) enumeratePaths(dst topology.NodeID) []topology.Path {
	if c.sh.pathCache == nil {
		return c.sh.topo.AlternativePaths(c.Node, dst, 2*c.sh.cfg.MaxPaths)
	}
	return c.sh.pathCache.Paths(c.Node, dst)
}

// currentBest returns the lowest path latency of a metapath holding its
// paths, the optimistic initial estimate for a newly opened path.
func (mp *metapath) currentBest() float64 {
	return slices.MinFunc(mp.paths, func(a, b pathState) int { return cmp.Compare(a.latNs, b.latNs) }).latNs
}

// hasPath reports whether p is open; the direct path always is.
func (mp *metapath) hasPath(p topology.Path) bool {
	return len(p) == 0 || slices.ContainsFunc(mp.paths, func(s pathState) bool { return s.path.Equal(p) })
}

// relax closes every alternative path and forgets the transient latency
// state: the metapath returns to the original single path, as after the
// M->L closing procedures have fully run (Fig 3.9). The alternative-path
// pool is regenerated so the next congestion can expand again.
func (c *Controller) relax(mp *metapath) {
	if n := len(mp.paths); n > 1 {
		c.Stats.PathsClosed += int64(n - 1)
		c.sh.trace.Control(c.sh.eng.Now(), telemetry.KindMetapathClose, int(c.Node), int(mp.dst), 0, 1)
		c.recordFlight(telemetry.FlightPathClose, mp.dst, 1)
	}
	mp.paths = mp.paths[:0]
	mp.latNs = float64(c.sh.cfg.LatencyFloor)
	mp.observed = false
	mp.zone = ZoneLow
	mp.outstanding = 0
	if cd := mp.cold; cd != nil {
		cd.pool = nil
		cd.poolInit = false
		cd.lastOpen = 0
		cd.failedAt = 0
		if cd.trend != nil {
			cd.trend.reset()
		}
	}
}

// maybeClose removes the worst-latency alternative path (never the direct
// path), shrinking toward the original route as traffic relaxes.
func (c *Controller) maybeClose(mp *metapath) {
	if len(mp.paths) <= 1 {
		return
	}
	worst, worstLat := -1, -1.0
	for i := 1; i < len(mp.paths); i++ {
		if mp.paths[i].latNs > worstLat {
			worst, worstLat = i, mp.paths[i].latNs
		}
	}
	// Never strand the metapath: with the direct path dead, the relaxation
	// that follows each recovered ACK would otherwise close the one feasible
	// detour and re-fail on the next injection, forever.
	if c.sh.pathCheck != nil {
		usableLeft := 0
		for i := range mp.paths {
			if i != worst && c.usable(mp, mp.paths[i].path) {
				usableLeft++
			}
		}
		if usableLeft == 0 {
			return
		}
	}
	mp.paths = append(mp.paths[:worst], mp.paths[worst+1:]...)
	c.Stats.PathsClosed++
	c.sh.trace.Control(c.sh.eng.Now(), telemetry.KindMetapathClose, int(c.Node), int(mp.dst), 0, int64(len(mp.paths)))
	c.recordFlight(telemetry.FlightPathClose, mp.dst, len(mp.paths))
}

// evidence builds the current contending-flow signature for a destination
// from reports within the evidence window.
func (c *Controller) evidence(e *sim.Engine, mp *metapath) Signature {
	flows := c.sh.sigBuf[:0]
	if cd := mp.cold; cd != nil {
		cd.flowSeen = slices.DeleteFunc(cd.flowSeen, func(s flowStamp) bool { return e.Now()-s.at > c.sh.cfg.EvidenceWindow })
		for _, s := range cd.flowSeen {
			flows = append(flows, s.flow)
		}
	}
	c.sh.sigBuf = flows
	return NewSignature(flows, c.sh.cfg.MaxSignature)
}

// tryReuse looks up a saved solution for the current pattern and applies it
// wholesale — "maximum path expansion is directly done" (§4.6.3). Reports
// whether a solution was applied.
func (c *Controller) tryReuse(e *sim.Engine, mp *metapath) bool {
	sig := c.evidence(e, mp)
	if len(sig) == 0 {
		return false
	}
	sol := c.db.Lookup(int(mp.dst), sig, c.sh.cfg.Similarity)
	if sol == nil {
		c.sh.trace.Control(e.Now(), telemetry.KindSolDBMiss, int(c.Node), int(mp.dst), 0, int64(c.db.Size()))
		return false
	}
	// A saved solution is only as good as its links: one that crosses a
	// failed link must not be re-applied wholesale.
	for i := range sol.paths {
		if !c.usable(mp, sol.paths[i].path) {
			c.sh.trace.Control(e.Now(), telemetry.KindSolDBMiss, int(c.Node), int(mp.dst), 0, int64(c.db.Size()))
			return false
		}
	}
	mp.restore(c.sh, sol.paths)
	mp.cold.lastOpen = e.Now()
	if sol.Hits == 0 {
		c.Stats.PatternsReused++
	}
	sol.Hits++
	c.Stats.ReuseApplications++
	c.sh.trace.Control(e.Now(), telemetry.KindSolDBHit, int(c.Node), int(mp.dst), 0, int64(c.db.Size()))
	return true
}

// saveSolution records the path set that brought the metapath out of the
// high zone, keyed by the contending pattern (§3.2.8, Fig 3.14).
func (c *Controller) saveSolution(e *sim.Engine, mp *metapath) {
	sig := c.evidence(e, mp)
	if len(sig) == 0 {
		return
	}
	var one [1]pathState
	if c.db.Save(int(mp.dst), sig, mp.states(&one), c.sh.cfg.Similarity, e.Now()) != nil {
		c.Stats.PatternsSaved++
		c.sh.trace.Control(e.Now(), telemetry.KindSolDBSave, int(c.Node), int(mp.dst), 0, int64(c.db.Size()))
	}
}

// PathCount reports the current number of MSPs toward dst (1 = direct
// only). Used by tests and the path-opening walkthrough example.
func (c *Controller) PathCount(dst topology.NodeID) int {
	if mp := c.find(dst); mp != nil {
		return max(1, len(mp.paths))
	}
	return 1
}

// ZoneFor reports the current congestion zone toward dst.
func (c *Controller) ZoneFor(dst topology.NodeID) Zone {
	if mp := c.find(dst); mp != nil {
		return mp.zone
	}
	return ZoneLow
}

// MetapathLatency reports L(MP) (Eq 3.4) toward dst in nanoseconds.
func (c *Controller) MetapathLatency(dst topology.NodeID) float64 {
	if mp := c.find(dst); mp != nil {
		return mp.latency(float64(c.sh.cfg.LatencyFloor))
	}
	return float64(c.sh.cfg.LatencyFloor)
}

// Paths returns a copy of the current waypoint sets toward dst, direct
// path first — a copy on purpose: the originals are shared with the path
// cache, the solution database and in-flight packets (pathState.path).
func (c *Controller) Paths(dst topology.NodeID) []topology.Path {
	mp := c.find(dst)
	if mp == nil {
		return []topology.Path{nil}
	}
	var one [1]pathState
	states := mp.states(&one)
	out := make([]topology.Path, len(states))
	for i := range states {
		out[i] = append(topology.Path(nil), states[i].path...)
	}
	return out
}

// Install builds one controller per node over net, all sharing cfg, and
// returns them. rngSeed derives per-node streams. Controllers are wired to
// the fabric's link-health predicate and the collector's recovery
// histogram, making them fault-aware.
func Install(net *network.Network, cfg Config, rngSeed uint64) []*Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	slab := make([]Controller, net.Topo.NumTerminals())
	ctls := make([]*Controller, len(slab))
	root := sim.NewRNG(rngSeed)
	// One context per shard engine, whose goroutine runs all its
	// controllers: the path cache, metapath chunks and index need no lock,
	// hot destination sets are enumerated once per shard, and the cache
	// bound keeps resident pairs O(active flows), not O(N^2).
	shards := make(map[*sim.Engine]*shardState)
	capacity := max(256, 4*len(slab))
	net.SetSourceController(func(node topology.NodeID) network.SourceController {
		// Each controller binds to its node's shard: engine, tracer and
		// collector all come from the shard owning the node's NIC, so
		// controller callbacks stay shard-local in parallel runs.
		eng := net.EngineForNode(node)
		sh := shards[eng]
		if sh == nil {
			sh = &shardState{
				cfg: cfg, topo: net.Topo, eng: eng,
				pathCheck: net.PathUsable,
				pathCache: topology.NewPathCache(net.Topo, 2*cfg.MaxPaths, capacity),
				trace:     net.TracerForNode(node),
				rec:       net.RecorderForNode(node),
			}
			if col := net.CollectorForNode(node); col != nil {
				sh.onRecovery = col.PathRecovered
			}
			shards[eng] = sh
		}
		c := &slab[node]
		c.Node, c.sh = node, sh
		if cfg.Predictive {
			c.db = NewSolutionDB()
		}
		c.rng.Seed(root.SplitSeed(uint64(node) + 1)) // the stream of root.Split(node+1)
		ctls[node] = c
		return c
	})
	return ctls
}

// OpenPathCounts reports how many metapaths of the shards the controllers
// belong to hold more than their direct path (open, in the paper's sense),
// and how many extra paths those hold in total. It must run where the
// controllers are quiescent (engine goroutine, or a shard-group barrier).
// Nil controllers (nodes without PR-DRB) are skipped.
func OpenPathCounts(ctls []*Controller) (openMetapaths, extraPaths int) {
	var seen []*shardState
	for _, c := range ctls {
		if c == nil || slices.Contains(seen, c.sh) {
			continue
		}
		seen = append(seen, c.sh)
		for _, mp := range c.sh.index.slots {
			if mp != nil && len(mp.paths) > 1 {
				openMetapaths++
				extraPaths += len(mp.paths) - 1
			}
		}
	}
	return openMetapaths, extraPaths
}

// AggregateStats sums the stats of a controller fleet.
func AggregateStats(ctls []*Controller) Stats {
	var s Stats
	for _, c := range ctls {
		if c != nil {
			s.Add(c.Stats)
		}
	}
	return s
}

var (
	_ network.SourceController = (*Controller)(nil)
	_ network.FailureAware     = (*Controller)(nil)
)
