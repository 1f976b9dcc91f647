package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"prdrb/internal/network"
	"prdrb/internal/topology"
)

// Solution-database export/import — the "static variation" of thesis §5.2:
// "PR-DRB routers could have offline meta-information about the
// communication patterns... This information would help the routing module
// to decide faster, notify sooner and apply best solutions smarter."
//
// A trained controller fleet serializes its saved solutions; a later run
// of the same application preloads them, so the predictive module reacts
// on the *first* occurrence of each pattern instead of learning during it.

// exportPath is the JSON form of one multistep path.
type exportPath struct {
	Waypoints []int   `json:"waypoints"`
	LatencyNs float64 `json:"latency_ns"`
	ExtraHops int     `json:"extra_hops"`
}

// exportSolution is one saved pattern->paths entry.
type exportSolution struct {
	Dst   int          `json:"dst"`
	Flows [][2]int     `json:"flows"` // [src, dst] pairs
	Paths []exportPath `json:"paths"`
	Hits  int64        `json:"hits"`
}

// exportNode is one source node's knowledge.
type exportNode struct {
	Node      int              `json:"node"`
	Solutions []exportSolution `json:"solutions"`
}

// Knowledge is a serializable snapshot of a controller fleet's solution
// databases.
type Knowledge struct {
	Nodes []exportNode `json:"nodes"`
}

// ExportKnowledge snapshots every predictive controller's database, in
// node order, each node's destinations in ascending order.
func ExportKnowledge(ctls []*Controller) *Knowledge {
	k := &Knowledge{}
	for _, c := range ctls {
		if c == nil || c.db == nil {
			continue
		}
		en := exportNode{Node: int(c.Node)}
		for dst, sols := range c.db.perDst {
			for _, s := range sols {
				es := exportSolution{Dst: dst, Hits: s.Hits}
				for _, f := range s.Sig {
					es.Flows = append(es.Flows, [2]int{int(f.Src), int(f.Dst)})
				}
				for _, p := range s.paths {
					wp := make([]int, len(p.path))
					for i, r := range p.path {
						wp[i] = int(r)
					}
					es.Paths = append(es.Paths, exportPath{
						Waypoints: wp, LatencyNs: p.latNs, ExtraHops: int(p.extraHops),
					})
				}
				en.Solutions = append(en.Solutions, es)
			}
		}
		if len(en.Solutions) > 0 {
			slices.SortStableFunc(en.Solutions, func(a, b exportSolution) int { return a.Dst - b.Dst })
			k.Nodes = append(k.Nodes, en)
		}
	}
	return k
}

// ImportKnowledge preloads databases into a fresh controller fleet. The
// fleet must cover the node ids in the snapshot and be predictive, and
// every solution must fit the fleet's fabric and policy (decode).
func ImportKnowledge(ctls []*Controller, k *Knowledge) error {
	byNode := make(map[int]*Controller, len(ctls))
	for _, c := range ctls {
		if c != nil {
			byNode[int(c.Node)] = c
		}
	}
	for _, en := range k.Nodes {
		c := byNode[en.Node]
		if c == nil {
			return fmt.Errorf("core: knowledge references unknown node %d", en.Node)
		}
		if c.db == nil {
			return fmt.Errorf("core: node %d controller is not predictive", en.Node)
		}
		for i, es := range en.Solutions {
			sig, paths, err := es.decode(c.sh.topo, &c.sh.cfg)
			if err != nil {
				return fmt.Errorf("core: node %d solution %d: %w", en.Node, i, err)
			}
			c.db.Save(es.Dst, sig, paths, c.sh.cfg.Similarity, 0)
		}
	}
	return nil
}

// decode converts es into a signature and path states for topo under cfg.
// It reports the first reason es cannot be a solution there: a node or
// router outside the fabric, no paths or more than MaxPaths, or a path
// with a latency that is not a finite non-negative number, a negative or
// oversized hop excess, or the direct path (no waypoints, no extra hops)
// anywhere but first or missing there.
func (es *exportSolution) decode(topo topology.Topology, cfg *Config) (Signature, []pathState, error) {
	nodes, routers := topo.NumTerminals(), topo.NumRouters()
	outside := func(id, n int) bool { return id < 0 || id >= n }
	if outside(es.Dst, nodes) || slices.ContainsFunc(es.Flows, func(f [2]int) bool { return outside(f[0], nodes) || outside(f[1], nodes) }) {
		return nil, nil, fmt.Errorf("destination %d or a flow of %v outside [0, %d)", es.Dst, es.Flows, nodes)
	}
	if len(es.Paths) == 0 || len(es.Paths) > cfg.MaxPaths {
		return nil, nil, fmt.Errorf("%d paths, want 1 to %d", len(es.Paths), cfg.MaxPaths)
	}
	flows := make([]network.FlowKey, len(es.Flows))
	for i, f := range es.Flows {
		flows[i] = network.FlowKey{Src: topology.NodeID(f[0]), Dst: topology.NodeID(f[1])}
	}
	paths := make([]pathState, len(es.Paths))
	for i, p := range es.Paths {
		direct := len(p.Waypoints) == 0
		if !(p.LatencyNs >= 0) || math.IsInf(p.LatencyNs, 1) || outside(p.ExtraHops, math.MaxInt16+1) ||
			direct != (i == 0) || direct && p.ExtraHops != 0 ||
			slices.ContainsFunc(p.Waypoints, func(r int) bool { return outside(r, routers) }) {
			return nil, nil, fmt.Errorf("path %d %+v: want routers in [0, %d), a finite latency >= 0 and 0 to %d extra hops, "+
				"and the direct path (no waypoints, no extra hops) first and only there", i, p, routers, math.MaxInt16)
		}
		paths[i] = pathState{path: make(topology.Path, len(p.Waypoints)), latNs: p.LatencyNs, extraHops: int16(p.ExtraHops)}
		for j, r := range p.Waypoints {
			paths[i].path[j] = topology.RouterID(r)
		}
	}
	return NewSignature(flows, cfg.MaxSignature), paths, nil
}

// WriteTo serializes the knowledge as indented JSON.
func (k *Knowledge) WriteTo(w io.Writer) (int64, error) {
	buf, err := json.MarshalIndent(k, "", "  ")
	if err != nil {
		return 0, err
	}
	buf = append(buf, '\n')
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadKnowledge parses a snapshot written by WriteTo.
func ReadKnowledge(r io.Reader) (*Knowledge, error) {
	var k Knowledge
	dec := json.NewDecoder(r)
	if err := dec.Decode(&k); err != nil {
		return nil, fmt.Errorf("core: bad knowledge snapshot: %w", err)
	}
	return &k, nil
}

// Size returns the number of solutions in the snapshot.
func (k *Knowledge) Size() int {
	n := 0
	for _, en := range k.Nodes {
		n += len(en.Solutions)
	}
	return n
}
