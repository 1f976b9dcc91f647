package trace

import (
	"fmt"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// GoalReplay drives the network from a dependency-graph schedule. It is
// the graph analogue of Replay: a node fires the moment every node it
// requires has completed — no program counter, no posting-order request
// queue — and sends keep the rendezvous semantics (a send node completes
// when its message is fully delivered), so execution time still reflects
// network latency end to end. Receives match arrivals by (source rank,
// tag), with out-of-order arrivals parked in an eager inbox.
type GoalReplay struct {
	Net *network.Network

	ranks []*goalRankState
	// nodes maps a rank to its terminal; rankOf a terminal to the rank
	// placed on it, -1 for none.
	nodes     []topology.NodeID
	rankOf    []int32
	sendOwner map[uint64]goalSendRef

	startAt       sim.Time
	finishedCount int
	started       bool
}

type goalSendRef struct {
	rank int
	id   int
}

// goalKey matches messages to posted receives.
type goalKey struct {
	src, tag int
}

// goalRankState is one rank's dependency-firing state, and the actor its
// events are delivered to: the start of the replay, a node firing and a
// calc node completing, the last two with the node's id as the argument.
type goalRankState struct {
	replay *GoalReplay
	rank   int
	nodes  []GoalNode

	pending    []int   // unmet dependency count per node
	dependents [][]int // reverse edges
	done       []bool

	// posted queues fired-but-unmatched receives per (src,tag); inbox
	// counts arrived-but-unmatched messages (eager buffering).
	posted map[goalKey][]int
	inbox  map[goalKey]int

	remaining  int
	finished   bool
	finishedAt sim.Time
}

// NewGoalReplay prepares a replay of g over net. The schedule is
// validated; its rank count must not exceed the network's terminals.
func NewGoalReplay(net *network.Network, g *Goal, mapping []topology.NodeID) (*GoalReplay, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	nodes, rankOf, err := Placement("goal", net.Topo.NumTerminals(), g.Ranks, mapping)
	if err != nil {
		return nil, err
	}
	r := &GoalReplay{
		Net:       net,
		nodes:     nodes,
		rankOf:    rankOf,
		sendOwner: make(map[uint64]goalSendRef),
	}
	r.ranks = make([]*goalRankState, g.Ranks)
	for i := range r.ranks {
		prog := g.Progs[i]
		rs := &goalRankState{
			replay:     r,
			rank:       i,
			nodes:      prog,
			pending:    make([]int, len(prog)),
			dependents: make([][]int, len(prog)),
			done:       make([]bool, len(prog)),
			posted:     make(map[goalKey][]int),
			inbox:      make(map[goalKey]int),
			remaining:  len(prog),
		}
		for id, nd := range prog {
			rs.pending[id] = len(nd.Requires)
			for _, dep := range nd.Requires {
				rs.dependents[dep] = append(rs.dependents[dep], id)
			}
		}
		r.ranks[i] = rs
	}
	for i := 0; i < g.Ranks; i++ {
		net.NICs[nodes[i]].OnMessage = r.makeOnMessage(i)
	}
	return r, nil
}

// Start begins replay at time at: every node with no dependencies fires.
func (r *GoalReplay) Start(at sim.Time) {
	if r.started {
		panic("goal: replay started twice")
	}
	r.started = true
	r.startAt = at
	for _, rs := range r.ranks {
		r.Net.Eng.ScheduleEvent(at, rs, goalStart, 0)
	}
}

// A goalRankState's event kinds.
const (
	goalStart uint8 = iota // fire every node without dependencies
	goalFire               // fire node arg, released by its last dependency
	goalDone               // calc node arg has run its duration
)

// HandleEvent implements sim.Actor.
func (rs *goalRankState) HandleEvent(e *sim.Engine, kind uint8, arg uint64) {
	r := rs.replay
	switch kind {
	case goalStart:
		if len(rs.nodes) == 0 {
			r.finishRank(e, rs)
			return
		}
		for id := range rs.nodes {
			if rs.pending[id] == 0 {
				r.fire(e, rs, id)
			}
		}
	case goalFire:
		r.fire(e, rs, int(arg))
	case goalDone:
		r.complete(e, rs, int(arg))
	}
}

// Finished reports whether every rank completed its graph.
func (r *GoalReplay) Finished() bool { return r.finishedCount == len(r.ranks) }

// ExecutionTime returns the wall time from Start to the last rank's finish.
func (r *GoalReplay) ExecutionTime() sim.Time {
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
func (r *GoalReplay) Err() error {
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
			} else if nd.Op == GoalRecv {
				why = fmt.Sprintf("unmatched recv from %d tag %d", nd.Peer, nd.Tag)
			}
			return fmt.Errorf("goal: rank %d stuck: node %d (%s) %s; %d of %d nodes incomplete",
				rs.rank, id, nd.Op, why, rs.remaining, len(rs.nodes))
		}
	}
	return nil
}

// fire executes a node whose dependencies are all met.
func (r *GoalReplay) fire(e *sim.Engine, rs *goalRankState, id int) {
	nd := &rs.nodes[id]
	switch nd.Op {
	case GoalCalc:
		e.AfterEvent(nd.Dur, rs, goalDone, uint64(id))

	case GoalSend:
		msgID := r.Net.NICs[r.nodes[rs.rank]].Send(e, r.nodes[nd.Peer], nd.Bytes, nd.MPIType, uint32(nd.Tag))
		r.sendOwner[msgID] = goalSendRef{rank: rs.rank, id: id}

	case GoalRecv:
		key := goalKey{src: nd.Peer, tag: nd.Tag}
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
func (r *GoalReplay) complete(e *sim.Engine, rs *goalRankState, id int) {
	if rs.done[id] {
		panic(fmt.Sprintf("goal: rank %d node %d completed twice", rs.rank, id))
	}
	rs.done[id] = true
	rs.remaining--
	for _, d := range rs.dependents[id] {
		rs.pending[d]--
		if rs.pending[d] == 0 {
			e.AfterEvent(0, rs, goalFire, uint64(d))
		}
	}
	if rs.remaining == 0 {
		r.finishRank(e, rs)
	}
}

func (r *GoalReplay) finishRank(e *sim.Engine, rs *goalRankState) {
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
func (r *GoalReplay) makeOnMessage(dstRank int) network.MessageHandler {
	return func(e *sim.Engine, srcNode topology.NodeID, msgID uint64, bytes int, mpiType uint8, seq uint32) {
		if ref, ok := r.sendOwner[msgID]; ok {
			delete(r.sendOwner, msgID)
			r.complete(e, r.ranks[ref.rank], ref.id)
		}
		srcRank := r.rankOf[srcNode]
		if srcRank < 0 {
			return
		}
		rs := r.ranks[dstRank]
		key := goalKey{src: int(srcRank), tag: int(seq)}
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
