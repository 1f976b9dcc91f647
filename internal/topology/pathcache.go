package topology

// PathCache memoizes AlternativePaths enumerations behind a bounded
// per-(src,dst) LRU. Path enumeration is a pure function of the topology
// (fault filtering happens at use time in the controllers), so entries
// never invalidate — the bound exists purely to keep memory O(active
// flows) instead of O(N^2) when thousands of sources each talk to
// thousands of destinations over a long run.
//
// A PathCache is NOT safe for concurrent use: create one per shard (the
// controllers of a shard share it; see core.Install). Returned slices are
// shared and must be treated as immutable, exactly like the
// topology-owned storage AlternativePaths implementations may alias.
type PathCache struct {
	topo Topology
	max  int // paths enumerated per pair
	cap  int // max resident pairs

	entries map[pathKey]*pathEntry
	// Intrusive LRU list: head = most recent, tail = eviction candidate.
	head, tail *pathEntry
}

type pathKey struct{ src, dst NodeID }

type pathEntry struct {
	key        pathKey
	paths      []Path
	prev, next *pathEntry
}

// NewPathCache builds a cache enumerating up to pathsPerPair alternatives
// per (src, dst) and holding at most capacity pairs. capacity is an
// eviction bound, not a size hint: the map grows with the pairs actually
// enumerated, which on a short run is a small fraction of the bound.
func NewPathCache(topo Topology, pathsPerPair, capacity int) *PathCache {
	if pathsPerPair <= 0 {
		panic("topology: PathCache needs a positive per-pair path budget")
	}
	if capacity <= 0 {
		panic("topology: PathCache needs a positive capacity")
	}
	return &PathCache{
		topo:    topo,
		max:     pathsPerPair,
		cap:     capacity,
		entries: make(map[pathKey]*pathEntry),
	}
}

// Paths returns the alternative-path enumeration for (src, dst), from
// cache when resident. The result is byte-for-byte what
// topo.AlternativePaths(src, dst, pathsPerPair) returns.
func (c *PathCache) Paths(src, dst NodeID) []Path {
	k := pathKey{src, dst}
	if e := c.entries[k]; e != nil {
		c.touch(e)
		return e.paths
	}
	e := &pathEntry{key: k, paths: c.topo.AlternativePaths(src, dst, c.max)}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		c.evict()
	}
	return e.paths
}

// Len reports the resident pair count.
func (c *PathCache) Len() int { return len(c.entries) }

func (c *PathCache) pushFront(e *pathEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *PathCache) unlink(e *pathEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *PathCache) touch(e *pathEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *PathCache) evict() {
	e := c.tail
	if e == nil {
		return
	}
	c.unlink(e)
	delete(c.entries, e.key)
}
