package traffic

import (
	"prdrb/internal/ckpt"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Sources is the serializable handle an installer returns: it retains the
// per-node RNG streams that drive injection so a checkpoint can capture
// the exact position of every source's randomness. The sources' pending
// events live on the engines (and are captured by the engine section); the
// RNG words here are the rest of what a source carries between firings.
type Sources struct {
	Label string
	nodes []topology.NodeID
	rngs  []*sim.RNG
}

func (s *Sources) add(node topology.NodeID, r *sim.RNG) {
	s.nodes = append(s.nodes, node)
	s.rngs = append(s.rngs, r)
}

// Merge appends other's streams (used by multi-phase installers).
func (s *Sources) Merge(other *Sources) {
	if other == nil {
		return
	}
	s.nodes = append(s.nodes, other.nodes...)
	s.rngs = append(s.rngs, other.rngs...)
}

// EncodeState appends every stream's position in installation order
// (installers walk their node lists deterministically, so the order is a
// pure function of the configuration).
func (s *Sources) EncodeState(e *ckpt.Enc) {
	e.Str(s.Label)
	e.Int(len(s.nodes))
	for i, node := range s.nodes {
		e.I64(int64(node))
		for _, w := range s.rngs[i].State() {
			e.U64(w)
		}
	}
}
