package topology

import "fmt"

// KAryNTree is the k-ary n-tree fat-tree of §2.1.5 (after Petrini &
// Vanneschi): k^n terminals, n levels of k^(n-1) switches, each switch with
// k down ports (0..k-1) and, below the top level, k up ports (k..2k-1).
//
// A switch is identified by (level, word) where word is an (n-1)-digit
// base-k string w[n-2]..w[0]. Switch <w, l> at level l connects upward to
// the k switches <w', l+1> whose words differ from w only in digit l.
// Terminal p = p[n-1]..p[0] attaches to the level-0 switch with word
// p[n-1]..p[1] via down port p[0].
//
// Minimal routing is the two-phase scheme of §2.1.5: an (optionally
// adaptive) ascending phase to a nearest common ancestor (NCA), then a
// deterministic descending phase. The baseline deterministic up-route fixes
// digit l to dst digit l+1 at each level, so all packets to one destination
// converge on a single root subtree — the classic deterministic fat-tree
// routing whose contention the paper's baselines exhibit.
type KAryNTree struct {
	K, N     int
	switches int // per level: K^(N-1)
	terms    int // K^N
	// pow[i] = K^i for i in [0, N): digit arithmetic without a division
	// loop (IsAncestor runs on every adaptive routing decision).
	pow []int
	// upPorts is the precomputed all-up-ports answer of MinimalPorts
	// (identical for every below-ancestor query). It is written once at
	// construction and read-only afterwards, so returning it from
	// concurrent routing decisions is safe; see the MinimalPorts contract
	// in Topology.
	upPorts []int
}

// NewKAryNTree builds a k-ary n-tree. It panics unless k >= 2 and n >= 2.
func NewKAryNTree(k, n int) *KAryNTree {
	if err := checkTree(k, n); err != nil {
		panic(err)
	}
	pow := make([]int, n)
	pow[0] = 1
	for i := 1; i < n; i++ {
		pow[i] = pow[i-1] * k
	}
	per := pow[n-1]
	t := &KAryNTree{K: k, N: n, switches: per, terms: per * k, pow: pow}
	t.upPorts = make([]int, k)
	for i := range t.upPorts {
		t.upPorts[i] = k + i
	}
	return t
}

// checkTree reports why k and n cannot form a k-ary n-tree.
func checkTree(k, n int) error {
	if k < 2 || n < 2 {
		return fmt.Errorf("topology: invalid %d-ary %d-tree (need k >= 2, n >= 2)", k, n)
	}
	return nil
}

// Name implements Topology.
func (t *KAryNTree) Name() string { return fmt.Sprintf("ft-%dary%dtree", t.K, t.N) }

// NumTerminals implements Topology.
func (t *KAryNTree) NumTerminals() int { return t.terms }

// NumRouters implements Topology.
func (t *KAryNTree) NumRouters() int { return t.N * t.switches }

// Level returns the tree level (0 = leaf, N-1 = root) of router r.
func (t *KAryNTree) Level(r RouterID) int { return int(r) / t.switches }

// Word returns the (n-1)-digit identifier of router r within its level.
func (t *KAryNTree) Word(r RouterID) int { return int(r) % t.switches }

// Switch returns the RouterID for (level, word).
func (t *KAryNTree) Switch(level, word int) RouterID {
	return RouterID(level*t.switches + word)
}

// digit extracts base-k digit i of word w.
func (t *KAryNTree) digit(w, i int) int { return w / t.pow[i] % t.K }

// setDigit returns w with base-k digit i replaced by v.
func (t *KAryNTree) setDigit(w, i, v int) int {
	return w + (v-t.digit(w, i))*t.pow[i]
}

// Radix implements Topology.
func (t *KAryNTree) Radix(r RouterID) int {
	if t.Level(r) == t.N-1 {
		return t.K // top level: down ports only
	}
	return 2 * t.K
}

// RouterLabel implements Topology.
func (t *KAryNTree) RouterLabel(r RouterID) string {
	return fmt.Sprintf("L%d.S%02d", t.Level(r), t.Word(r))
}

// PortPeer implements Topology.
func (t *KAryNTree) PortPeer(r RouterID, p int) Peer {
	l, w := t.Level(r), t.Word(r)
	if p < 0 || p >= t.Radix(r) {
		panic(fmt.Sprintf("topology: tree port %d out of range on %s", p, t.RouterLabel(r)))
	}
	if p < t.K { // down port
		if l == 0 {
			// Terminal: word supplies the high n-1 digits, port the lowest.
			return Peer{Router: None, Terminal: NodeID(w*t.K + p)}
		}
		// Down to the level l-1 switch whose digit l-1 equals p; its up port
		// back to us is k + (our digit at that position... the up link from
		// <w', l-1> choosing digit value d arrives at <w'(l-1 := d), l>; the
		// reverse port on the lower switch is k + digit l-1 of OUR word).
		lw := t.setDigit(w, l-1, p)
		return Peer{Router: t.Switch(l-1, lw), Port: t.K + t.digit(w, l-1), Terminal: -1}
	}
	// Up port k+v: to the level l+1 switch whose word sets digit l to v.
	v := p - t.K
	uw := t.setDigit(w, l, v)
	return Peer{Router: t.Switch(l+1, uw), Port: t.digit(w, l), Terminal: -1}
}

// TerminalAttach implements Topology.
func (t *KAryNTree) TerminalAttach(n NodeID) (RouterID, int) {
	return t.Switch(0, int(n)/t.K), int(n) % t.K
}

// LinkDim implements Topology: up links are dimension 0, down links
// dimension 1, terminal exits -1. Trees have no rings, so no datelines.
func (t *KAryNTree) LinkDim(r RouterID, p int) (int, bool) {
	if p >= t.K {
		return 0, false // up
	}
	if t.Level(r) == 0 {
		return -1, false // terminal
	}
	return 1, false // down
}

// IsAncestor reports whether router r is an ancestor of terminal dst (i.e.
// dst is reachable going only down from r): the digits of r's word at
// positions l..n-2 (l = r's level) must equal those of dst's leaf word.
// Dividing by K^l drops the digits below l; the leaf word is first reduced
// mod K^(n-1) so that, as in a digit-by-digit comparison, nothing above
// digit n-2 takes part (a root is an ancestor of every dst).
func (t *KAryNTree) IsAncestor(r RouterID, dst NodeID) bool {
	p := t.pow[t.Level(r)]
	return t.Word(r)/p == int(dst)/t.K%t.switches/p
}

// downPort returns the down port at ancestor router r toward terminal dst.
func (t *KAryNTree) downPort(r RouterID, dst NodeID) int {
	l := t.Level(r)
	if l == 0 {
		return int(dst) % t.K
	}
	// Next switch down must have digit l-1 equal to dst digit l.
	return t.digit(int(dst), l)
}

// NextHop implements Topology: deterministic up (digit fixed to the
// destination's digit) until an ancestor, then the unique down route.
func (t *KAryNTree) NextHop(r RouterID, dst NodeID) int {
	if t.IsAncestor(r, dst) {
		return t.downPort(r, dst)
	}
	l := t.Level(r)
	// Ascend, fixing digit l to dst digit l+1: all traffic to dst shares
	// one ascending tree, the deterministic baseline's signature.
	return t.K + t.digit(int(dst), l+1)
}

// MinimalPorts implements Topology: when below the needed ancestor level,
// every up port continues a minimal path; once an ancestor, only the unique
// down port does.
func (t *KAryNTree) MinimalPorts(r RouterID, dst NodeID, buf []int) []int {
	if t.IsAncestor(r, dst) {
		return append(buf[:0], t.downPort(r, dst))
	}
	return t.upPorts
}

// NextHopToRouter implements Topology. The target must be reachable purely
// up (an ancestor-side switch) or purely down from r; DRB waypoints on trees
// are always ancestors so both cases arise as a segment ascends to its
// waypoint and descends from it.
func (t *KAryNTree) NextHopToRouter(r, target RouterID) int {
	if r == target {
		panic("topology: NextHopToRouter with r == target")
	}
	rl := t.Level(r)
	tl, tw := t.Level(target), t.Word(target)
	if tl > rl {
		// Ascend: digits rl..n-2 of target must be adopted bottom-up; the
		// next step fixes digit rl.
		return t.K + t.digit(tw, rl)
	}
	if tl < rl {
		// Descend: the next switch down differs in digit rl-1; it must
		// carry the target's digit there.
		return t.digit(tw, rl-1)
	}
	panic(fmt.Sprintf("topology: no up/down route %s -> %s", t.RouterLabel(r), t.RouterLabel(target)))
}

// Distance implements Topology: the exact hop count in the switch graph,
// from the words' digits. A hop between levels l and l+1 is the only move
// that changes digit l, and it may set it to any value, so a shortest walk
// from a to b covers the level range [lo, hi] holding both their levels and,
// for every digit i where their words differ, levels i and i+1. It goes
// down to lo and up to hi once: 2·(hi−lo) − |level(a)−level(b)| hops.
func (t *KAryNTree) Distance(a, b RouterID) int {
	la, lb := t.Level(a), t.Level(b)
	lo, hi := min(la, lb), max(la, lb)
	wa, wb := t.Word(a), t.Word(b)
	for i := 0; wa != wb; i++ {
		if wa%t.K != wb%t.K {
			lo, hi = min(lo, i), max(hi, i+1)
		}
		wa, wb = wa/t.K, wb/t.K
	}
	return 2*(hi-lo) - (max(la, lb) - min(la, lb))
}

// ncaLevel is the level of the nearest common ancestors (NCAs) of two
// distinct terminals: one above the highest digit in which their leaf
// switches differ, 0 when they share a leaf switch. The deterministic
// baseline ascends to exactly one NCA; the others are the natural DRB
// alternatives (§3.2.3 applied to k-ary n-trees).
func (t *KAryNTree) ncaLevel(src, dst NodeID) int {
	sw, dw := int(src)/t.K, int(dst)/t.K
	for i := t.N - 2; i >= 0; i-- {
		if t.digit(sw, i) != t.digit(dw, i) {
			return i + 1
		}
	}
	return 0
}

// ancestorsAt describes the ancestor switches of terminal n at the given
// level: digits level..n-2 are fixed to the terminal's and digits
// 0..level-1 range over all k values, so they are the count = k^level
// consecutive routers from first, in ascending order.
func (t *KAryNTree) ancestorsAt(n NodeID, level int) (first RouterID, count int) {
	count = t.pow[level]
	return t.Switch(level, int(n)/t.K/count*count), count
}

// AlternativePaths implements Topology. Alternatives are single-waypoint
// MSPs through (1) the non-default NCA switches at the minimal level, then
// (2) ancestors one level higher (a controlled non-minimal expansion, the
// tree analogue of widening the mesh detour ring). The two runs never
// share a switch, so nothing needs deduplicating, and the paths of one call
// are one-element windows, capped at that length, of one waypoint array.
func (t *KAryNTree) AlternativePaths(src, dst NodeID, max int) []Path {
	if src == dst || max <= 0 {
		return nil
	}
	lvl := t.ncaLevel(src, dst)
	ncas, n := t.ancestorsAt(src, lvl)
	// One level of controlled over-ascent, if the tree allows it.
	var higher RouterID
	h := 0
	if lvl+1 <= t.N-1 {
		higher, h = t.ancestorsAt(src, lvl+1)
	}
	// The deterministic route's NCA (digits fixed by dst along the ascent)
	// is one of the n; every other switch is an alternative.
	defaultNCA := t.deterministicNCA(src, dst)
	total := min(max, n-1+h)
	if total == 0 {
		return nil
	}
	// NCA alternatives in ascending order but rotated by source, so
	// different flows prefer different switches; the higher ancestors
	// rotated by destination.
	waypoints := make([]RouterID, 0, total)
	for i := 0; i < n && len(waypoints) < total; i++ {
		if r := ncas + RouterID((int(src)+i)%n); r != defaultNCA {
			waypoints = append(waypoints, r)
		}
	}
	for i := 0; i < h && len(waypoints) < total; i++ {
		waypoints = append(waypoints, higher+RouterID((int(dst)+i)%h))
	}
	out := make([]Path, len(waypoints))
	for i := range out {
		out[i] = waypoints[i : i+1 : i+1]
	}
	return out
}

// deterministicNCA returns the ancestor switch the deterministic NextHop
// ascent converges to for the pair (src, dst).
func (t *KAryNTree) deterministicNCA(src, dst NodeID) RouterID {
	r, _ := t.TerminalAttach(src)
	for !t.IsAncestor(r, dst) {
		p := t.NextHop(r, dst)
		peer := t.PortPeer(r, p)
		r = peer.Router
	}
	return r
}
