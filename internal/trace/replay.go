package trace

import (
	"fmt"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// blockKind says why a rank's state machine is not advancing.
type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedCompute
	blockedWaitOne  // OpWait: oldest unretired request
	blockedWaitAll  // OpWaitall: every unretired request
	blockedWaitLast // OpSend/OpRecv: the operation's own request, the newest
)

// request is an outstanding nonblocking operation, held by value in its
// rank's queue.
type request struct {
	// seq is the mpiSeq a send's message carries, by which its delivery
	// finds the request again; receives have 0, which no message carries.
	seq    uint32
	src    int32 // source rank, for receives
	isRecv bool
	done   bool
}

// rankState is one rank's replay FSM (the processing-node model of §4.1.1:
// "read an input trace file and simulate the events"). It is the actor its
// own step events are delivered to, so advancing a rank schedules no
// closure.
type rankState struct {
	replay *Replay
	rank   int
	// prog is the rank's program; its PC counts the events already run.
	prog Cursor

	// inbox counts arrived-but-unmatched messages per source rank (eager
	// buffering); made by the first message that arrives before its
	// receive is posted.
	inbox []int32
	// reqs[head:] holds the unretired requests in posting order; put slides
	// them down to the front before it would grow the slice, so the queue
	// stops allocating once it is as deep as the program ever gets.
	reqs []request
	head int

	blocked blockKind

	finished   bool
	finishedAt sim.Time
	mpiSeq     uint32
}

// Replay drives the network from a trace: blocking sends complete when the
// message is fully delivered (rendezvous semantics), so application
// execution time directly reflects network latency — the coupling behind
// the paper's execution-time results (Figs 4.21b, 4.25b, 4.27b).
type Replay struct {
	Net *network.Network

	ranks []rankState
	// nodes maps a rank to its terminal; rankOf a terminal to the rank
	// placed on it, -1 for none.
	nodes  []topology.NodeID
	rankOf []int32

	startAt       sim.Time
	finishedCount int
	started       bool
}

// NewReplay prepares a replay of tr over net. The trace must be valid
// (Trace.Validate, run here unless Build checked the trace), its rank count
// must not exceed the network's terminals, and a mapping must place every
// rank on a terminal of its own.
func NewReplay(net *network.Network, tr *Trace, mapping []topology.NodeID) (*Replay, error) {
	nodes, rankOf, err := Placement("trace", net.Topo.NumTerminals(), tr.Ranks, mapping)
	if err != nil {
		return nil, err
	}
	if !tr.checked || len(tr.progs) != tr.Ranks {
		if err := tr.Validate(); err != nil {
			return nil, err
		}
	}
	r := &Replay{
		Net:    net,
		ranks:  make([]rankState, tr.Ranks),
		nodes:  nodes,
		rankOf: rankOf,
	}
	for i := range r.ranks {
		rs := &r.ranks[i]
		*rs = rankState{replay: r, rank: i, prog: tr.Cursor(i)}
		// Hook message delivery on the rank's NIC.
		net.NICs[nodes[i]].OnMessage = rs.onMessage
	}
	return r, nil
}

// Placement checks that ranks fit a fabric of terminals and that mapping
// (nil = identity) puts every rank on a terminal of its own. It returns the
// terminal of each rank and the inverse, the rank on each terminal (-1 for
// none). who prefixes the errors.
func Placement(who string, terminals, ranks int, mapping []topology.NodeID) (nodes []topology.NodeID, rankOf []int32, err error) {
	if ranks > terminals {
		return nil, nil, fmt.Errorf("%s: %d ranks exceed %d terminals", who, ranks, terminals)
	}
	if mapping != nil && len(mapping) != ranks {
		return nil, nil, fmt.Errorf("%s: mapping has %d entries for %d ranks", who, len(mapping), ranks)
	}
	nodes, rankOf = make([]topology.NodeID, ranks), make([]int32, terminals)
	for i := range rankOf {
		rankOf[i] = -1
	}
	for i := range nodes {
		node := topology.NodeID(i)
		if mapping != nil {
			node = mapping[i]
		}
		if node < 0 || int(node) >= terminals {
			return nil, nil, fmt.Errorf("%s: rank %d mapped to node %d, outside the fabric's %d terminals", who, i, node, terminals)
		}
		if other := rankOf[node]; other >= 0 {
			return nil, nil, fmt.Errorf("%s: ranks %d and %d both mapped to node %d", who, other, i, node)
		}
		nodes[i], rankOf[node] = node, int32(i)
	}
	return nodes, rankOf, nil
}

// Start begins replay at time at (schedules every rank's first step).
func (r *Replay) Start(at sim.Time) {
	if r.started {
		panic("trace: replay started twice")
	}
	r.started = true
	r.startAt = at
	for i := range r.ranks {
		r.Net.Eng.ScheduleEvent(at, &r.ranks[i], 0, 0)
	}
}

// Finished reports whether every rank completed its trace.
func (r *Replay) Finished() bool { return r.finishedCount == len(r.ranks) }

// ExecutionTime returns the wall time from Start to the last rank's finish.
func (r *Replay) ExecutionTime() sim.Time {
	var end sim.Time
	for i := range r.ranks {
		end = max(end, r.ranks[i].finishedAt)
	}
	return end - r.startAt
}

// Err reports stuck ranks after the engine has drained — a mismatched
// trace (send without receive or vice versa) shows up here.
func (r *Replay) Err() error {
	if r.Finished() {
		return nil
	}
	for i := range r.ranks {
		rs := &r.ranks[i]
		if !rs.finished {
			next := rs.prog
			ev := "end"
			if e, ok := next.Next(); ok {
				ev = e.Op.String()
			}
			return fmt.Errorf("trace: rank %d stuck at pc=%d (%s), blocked=%d, %d reqs",
				rs.rank, rs.prog.PC(), ev, rs.blocked, len(rs.live()))
		}
	}
	return nil
}

// HandleEvent implements sim.Actor: a rank's only event is "advance".
func (rs *rankState) HandleEvent(e *sim.Engine, _ uint8, _ uint64) { rs.step(e) }

// step advances a rank until it blocks or finishes.
func (rs *rankState) step(e *sim.Engine) {
	rs.blocked = notBlocked
	for {
		ev, ok := rs.prog.Next()
		if !ok {
			break
		}
		switch ev.Op {
		case OpCompute:
			rs.blocked = blockedCompute
			e.AfterEvent(ev.Dur, rs, 0, 0)
			return

		case OpIsend:
			rs.inject(e, ev)

		case OpSend:
			rs.inject(e, ev)
			// Rendezvous: the send returns when its message is delivered.
			rs.blocked = blockedWaitLast
			return

		case OpIrecv:
			rs.put(request{isRecv: true, src: int32(ev.Peer), done: rs.takeEarly(ev.Peer)})

		case OpRecv:
			// A blocking receive is Irecv + wait-for-that-request; express
			// it through the same queue so message matching stays in
			// posting order.
			if rs.takeEarly(ev.Peer) {
				continue
			}
			rs.put(request{isRecv: true, src: int32(ev.Peer)})
			rs.blocked = blockedWaitLast
			return

		case OpWait:
			if q := rs.live(); len(q) == 0 {
				continue
			} else if q[0].done {
				rs.popOldest()
				continue
			}
			rs.blocked = blockedWaitOne
			return

		case OpWaitall:
			if rs.allDone() {
				rs.clear()
				continue
			}
			rs.blocked = blockedWaitAll
			return
		}
	}
	if !rs.finished {
		rs.finished = true
		rs.finishedAt = e.Now()
		rs.replay.finishedCount++
	}
}

// live returns the unretired requests, oldest first.
func (rs *rankState) live() []request { return rs.reqs[rs.head:] }

// put posts a request behind the others.
func (rs *rankState) put(q request) {
	if len(rs.reqs) == cap(rs.reqs) && rs.head > 0 {
		rs.reqs = rs.reqs[:copy(rs.reqs, rs.reqs[rs.head:])]
		rs.head = 0
	}
	rs.reqs = append(rs.reqs, q)
}

// popOldest retires the request at the head of the queue.
func (rs *rankState) popOldest() {
	rs.head++
	if rs.head == len(rs.reqs) {
		rs.clear()
	}
}

// popNewest retires the request at the tail of the queue: a blocking
// operation's own, which may complete while older ones are still out.
func (rs *rankState) popNewest() {
	rs.reqs = rs.reqs[:len(rs.reqs)-1]
	if rs.head == len(rs.reqs) {
		rs.clear()
	}
}

// clear retires every request.
func (rs *rankState) clear() { rs.reqs, rs.head = rs.reqs[:0], 0 }

func (rs *rankState) allDone() bool {
	for _, q := range rs.live() {
		if !q.done {
			return false
		}
	}
	return true
}

// takeEarly consumes one message from src that arrived before any receive
// for it was posted, if there is one.
func (rs *rankState) takeEarly(src int) bool {
	if rs.inbox == nil || rs.inbox[src] == 0 {
		return false
	}
	rs.inbox[src]--
	return true
}

// inject sends the event's message and posts the send request.
func (rs *rankState) inject(e *sim.Engine, ev Event) {
	r := rs.replay
	rs.mpiSeq++
	rs.put(request{seq: rs.mpiSeq})
	r.Net.NICs[r.nodes[rs.rank]].Send(e, r.nodes[ev.Peer], ev.Bytes, ev.MPIType, rs.mpiSeq)
}

// onMessage is the delivery hook of the rank's NIC: it completes the
// sender's request (the message is fully delivered — the rendezvous
// completion), found in the sender's queue by the sequence number the
// message carries, and matches the receiver's posted receives.
func (rs *rankState) onMessage(e *sim.Engine, srcNode topology.NodeID, _ uint64, _ int, _ uint8, seq uint32) {
	srcRank := rs.replay.rankOf[srcNode]
	if srcRank < 0 {
		return
	}
	if seq != 0 {
		sender := &rs.replay.ranks[srcRank]
		q := sender.live()
		for i := range q {
			if q[i].seq == seq {
				q[i].done = true
				sender.poke(e)
				break
			}
		}
	}
	// Match the oldest incomplete posted receive from srcRank.
	q := rs.live()
	for i := range q {
		if q[i].isRecv && !q[i].done && q[i].src == srcRank {
			q[i].done = true
			rs.poke(e)
			return
		}
	}
	if rs.inbox == nil {
		rs.inbox = make([]int32, len(rs.replay.ranks))
	}
	rs.inbox[srcRank]++
}

// poke re-checks a blocked rank's condition and resumes it when satisfied.
func (rs *rankState) poke(e *sim.Engine) {
	switch q := rs.live(); rs.blocked {
	case blockedWaitLast:
		if !q[len(q)-1].done {
			return
		}
		rs.popNewest()
	case blockedWaitOne:
		if !q[0].done {
			return
		}
		rs.popOldest()
	case blockedWaitAll:
		if !rs.allDone() {
			return
		}
		rs.clear()
	default:
		return
	}
	rs.blocked = notBlocked
	// Resume via a fresh event: poke runs inside a delivery callback and a
	// long chain of resumes would otherwise recurse.
	e.AfterEvent(0, rs, 0, 0)
}
