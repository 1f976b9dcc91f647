package trace_test

import (
	"fmt"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

// The GOAL replay as it was with its three closure events (start, calc
// completion, dependent release): the oracle for the typed events. Kept
// verbatim but for the ref prefix.

// refGoalReplay drives the network from a dependency-graph schedule. It is
// the graph analogue of Replay: a node fires the moment every node it
// requires has completed — no program counter, no posting-order request
// queue — and sends keep the rendezvous semantics (a send node completes
// when its message is fully delivered), so execution time still reflects
// network latency end to end. Receives match arrivals by (source rank,
// tag), with out-of-order arrivals parked in an eager inbox.
type refGoalReplay struct {
	Net  *network.Network
	Goal *trace.Goal
	// Mapping maps rank -> terminal node; nil means identity placement.
	Mapping []topology.NodeID

	ranks     []*refGoalRankState
	nodeRank  map[topology.NodeID]int
	sendOwner map[uint64]refGoalSendRef

	startAt       sim.Time
	finishedCount int
	started       bool
}

type refGoalSendRef struct {
	rank int
	id   int
}

// refGoalKey matches messages to posted receives.
type refGoalKey struct {
	src, tag int
}

// refGoalRankState is one rank's dependency-firing state.
type refGoalRankState struct {
	rank  int
	nodes []trace.GoalNode

	pending    []int   // unmet dependency count per node
	dependents [][]int // reverse edges
	done       []bool

	// posted queues fired-but-unmatched receives per (src,tag); inbox
	// counts arrived-but-unmatched messages (eager buffering).
	posted map[refGoalKey][]int
	inbox  map[refGoalKey]int

	remaining  int
	finished   bool
	finishedAt sim.Time
}

// newRefGoalReplay prepares a replay of g over net. The schedule is
// validated; its rank count must not exceed the network's terminals.
func newRefGoalReplay(net *network.Network, g *trace.Goal, mapping []topology.NodeID) (*refGoalReplay, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Ranks > net.Topo.NumTerminals() {
		return nil, fmt.Errorf("goal: %d ranks exceed %d terminals", g.Ranks, net.Topo.NumTerminals())
	}
	if mapping != nil && len(mapping) != g.Ranks {
		return nil, fmt.Errorf("goal: mapping has %d entries for %d ranks", len(mapping), g.Ranks)
	}
	r := &refGoalReplay{
		Net:       net,
		Goal:      g,
		Mapping:   mapping,
		nodeRank:  make(map[topology.NodeID]int, g.Ranks),
		sendOwner: make(map[uint64]refGoalSendRef),
	}
	r.ranks = make([]*refGoalRankState, g.Ranks)
	for i := range r.ranks {
		prog := g.Progs[i]
		rs := &refGoalRankState{
			rank:       i,
			nodes:      prog,
			pending:    make([]int, len(prog)),
			dependents: make([][]int, len(prog)),
			done:       make([]bool, len(prog)),
			posted:     make(map[refGoalKey][]int),
			inbox:      make(map[refGoalKey]int),
			remaining:  len(prog),
		}
		for id, nd := range prog {
			rs.pending[id] = len(nd.Requires)
			for _, dep := range nd.Requires {
				rs.dependents[dep] = append(rs.dependents[dep], id)
			}
		}
		r.ranks[i] = rs
		r.nodeRank[r.node(i)] = i
	}
	for i := 0; i < g.Ranks; i++ {
		net.NICs[r.node(i)].OnMessage = r.makeOnMessage(i)
	}
	return r, nil
}

// node maps a rank to its terminal.
func (r *refGoalReplay) node(rank int) topology.NodeID {
	if r.Mapping != nil {
		return r.Mapping[rank]
	}
	return topology.NodeID(rank)
}

// Start begins replay at time at: every node with no dependencies fires.
func (r *refGoalReplay) Start(at sim.Time) {
	if r.started {
		panic("goal: replay started twice")
	}
	r.started = true
	r.startAt = at
	for _, rs := range r.ranks {
		rs := rs
		r.Net.Eng.Schedule(at, func(e *sim.Engine) {
			if len(rs.nodes) == 0 {
				r.finishRank(e, rs)
				return
			}
			for id := range rs.nodes {
				if rs.pending[id] == 0 {
					r.fire(e, rs, id)
				}
			}
		})
	}
}

// Finished reports whether every rank completed its graph.
func (r *refGoalReplay) Finished() bool { return r.finishedCount == len(r.ranks) }

// ExecutionTime returns the wall time from Start to the last rank's finish.
func (r *refGoalReplay) ExecutionTime() sim.Time {
	var end sim.Time
	for _, rs := range r.ranks {
		if rs.finishedAt > end {
			end = rs.finishedAt
		}
	}
	return end - r.startAt
}

// Err reports stuck ranks after the engine has drained — an unmatched
// receive or a dependency that can never be met shows up here.
func (r *refGoalReplay) Err() error {
	if r.Finished() {
		return nil
	}
	for _, rs := range r.ranks {
		if rs.finished {
			continue
		}
		for id, nd := range rs.nodes {
			if rs.done[id] {
				continue
			}
			why := "in flight"
			if rs.pending[id] > 0 {
				why = fmt.Sprintf("%d unmet deps", rs.pending[id])
			} else if nd.Op == trace.GoalRecv {
				why = fmt.Sprintf("unmatched recv from %d tag %d", nd.Peer, nd.Tag)
			}
			return fmt.Errorf("goal: rank %d stuck: node %d (%s) %s; %d of %d nodes incomplete",
				rs.rank, id, nd.Op, why, rs.remaining, len(rs.nodes))
		}
	}
	return nil
}

// fire executes a node whose dependencies are all met.
func (r *refGoalReplay) fire(e *sim.Engine, rs *refGoalRankState, id int) {
	nd := &rs.nodes[id]
	switch nd.Op {
	case trace.GoalCalc:
		e.After(nd.Dur, func(e *sim.Engine) { r.complete(e, rs, id) })

	case trace.GoalSend:
		msgID := r.Net.NICs[r.node(rs.rank)].Send(e, r.node(nd.Peer), nd.Bytes, nd.MPIType, uint32(nd.Tag))
		r.sendOwner[msgID] = refGoalSendRef{rank: rs.rank, id: id}

	case trace.GoalRecv:
		key := refGoalKey{src: nd.Peer, tag: nd.Tag}
		if rs.inbox[key] > 0 {
			rs.inbox[key]--
			r.complete(e, rs, id)
			return
		}
		rs.posted[key] = append(rs.posted[key], id)
	}
}

// complete marks a node done and fires any dependents it releases.
// Dependents are scheduled as fresh engine events: complete runs inside
// delivery callbacks, and a long chain of zero-cost releases would
// otherwise recurse.
func (r *refGoalReplay) complete(e *sim.Engine, rs *refGoalRankState, id int) {
	if rs.done[id] {
		panic(fmt.Sprintf("goal: rank %d node %d completed twice", rs.rank, id))
	}
	rs.done[id] = true
	rs.remaining--
	for _, d := range rs.dependents[id] {
		rs.pending[d]--
		if rs.pending[d] == 0 {
			d := d
			e.After(0, func(e *sim.Engine) { r.fire(e, rs, d) })
		}
	}
	if rs.remaining == 0 {
		r.finishRank(e, rs)
	}
}

func (r *refGoalReplay) finishRank(e *sim.Engine, rs *refGoalRankState) {
	if rs.finished {
		return
	}
	rs.finished = true
	rs.finishedAt = e.Now()
	r.finishedCount++
}

// makeOnMessage builds the delivery hook for one receiving rank: it
// completes the sender's node (rendezvous completion) and matches the
// receiver's posted receives by (source rank, tag).
func (r *refGoalReplay) makeOnMessage(dstRank int) network.MessageHandler {
	return func(e *sim.Engine, srcNode topology.NodeID, msgID uint64, bytes int, mpiType uint8, seq uint32) {
		if ref, ok := r.sendOwner[msgID]; ok {
			delete(r.sendOwner, msgID)
			r.complete(e, r.ranks[ref.rank], ref.id)
		}
		srcRank, ok := r.nodeRank[srcNode]
		if !ok {
			return
		}
		rs := r.ranks[dstRank]
		key := refGoalKey{src: srcRank, tag: int(seq)}
		if q := rs.posted[key]; len(q) > 0 {
			id := q[0]
			if len(q) == 1 {
				delete(rs.posted, key)
			} else {
				rs.posted[key] = q[1:]
			}
			r.complete(e, rs, id)
			return
		}
		rs.inbox[key]++
	}
}
