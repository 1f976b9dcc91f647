package trace_test

import (
	"fmt"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
)

// The replay as it was while every step, compute delay and resume was a
// closure event, requests were heap objects behind a map from message id,
// and the inbox a map: the oracle the typed per-rank actors are held to
// (replay_oracle_test.go). Kept verbatim but for the ref prefix.

// refBlockKind says why a rank's state machine is not advancing.
type refBlockKind uint8

const (
	refNotBlocked refBlockKind = iota
	refBlockedCompute
	refBlockedWaitOne  // OpWait: oldest unretired request
	refBlockedWaitAll  // OpWaitall: every unretired request
	refBlockedWaitSend // OpSend's implicit request (retired out of order)
)

// request is an outstanding nonblocking operation.
type refRequest struct {
	isRecv bool
	src    int // source rank for receives
	done   bool
}

// refRankState is one rank's replay FSM (the processing-node model of §4.1.1:
// "read an input trace file and simulate the events").
type refRankState struct {
	rank int
	prog trace.Cursor

	// inbox counts arrived-but-unmatched messages per source rank (eager
	// buffering).
	inbox map[int]int
	// reqs holds unretired requests in posting order.
	reqs []*refRequest

	blocked  refBlockKind
	sendWait *refRequest // the blocking-send request (refBlockedWaitSend)

	finished   bool
	finishedAt sim.Time
	mpiSeq     uint32
}

// refReplay drives the network from a trace: blocking sends complete when the
// message is fully delivered (rendezvous semantics), so application
// execution time directly reflects network latency — the coupling behind
// the paper's execution-time results (Figs 4.21b, 4.25b, 4.27b).
type refReplay struct {
	Net   *network.Network
	Trace *trace.Trace
	// Mapping maps rank -> terminal node; nil means identity placement.
	Mapping []topology.NodeID

	ranks     []*refRankState
	nodeRank  map[topology.NodeID]int
	sendOwner map[uint64]*refSendRef

	startAt       sim.Time
	finishedCount int
	started       bool
}

type refSendRef struct {
	rank int
	req  *refRequest
}

// newRefReplay prepares a replay of tr over net. The trace's rank count must
// not exceed the network's terminals.
func newRefReplay(net *network.Network, tr *trace.Trace, mapping []topology.NodeID) (*refReplay, error) {
	if tr.Ranks > net.Topo.NumTerminals() {
		return nil, fmt.Errorf("trace: %d ranks exceed %d terminals", tr.Ranks, net.Topo.NumTerminals())
	}
	if mapping != nil && len(mapping) != tr.Ranks {
		return nil, fmt.Errorf("trace: mapping has %d entries for %d ranks", len(mapping), tr.Ranks)
	}
	r := &refReplay{
		Net:       net,
		Trace:     tr,
		Mapping:   mapping,
		nodeRank:  make(map[topology.NodeID]int, tr.Ranks),
		sendOwner: make(map[uint64]*refSendRef),
	}
	r.ranks = make([]*refRankState, tr.Ranks)
	for i := range r.ranks {
		r.ranks[i] = &refRankState{
			rank:  i,
			prog:  tr.Cursor(i),
			inbox: make(map[int]int),
		}
		r.nodeRank[r.node(i)] = i
	}
	// Hook message delivery on the participating NICs.
	for i := 0; i < tr.Ranks; i++ {
		net.NICs[r.node(i)].OnMessage = r.makeOnMessage(i)
	}
	return r, nil
}

// node maps a rank to its terminal.
func (r *refReplay) node(rank int) topology.NodeID {
	if r.Mapping != nil {
		return r.Mapping[rank]
	}
	return topology.NodeID(rank)
}

// Start begins replay at time at (schedules every rank's first step).
func (r *refReplay) Start(at sim.Time) {
	if r.started {
		panic("trace: replay started twice")
	}
	r.started = true
	r.startAt = at
	for _, rs := range r.ranks {
		rs := rs
		r.Net.Eng.Schedule(at, func(e *sim.Engine) { r.step(e, rs) })
	}
}

// Finished reports whether every rank completed its trace.
func (r *refReplay) Finished() bool { return r.finishedCount == len(r.ranks) }

// ExecutionTime returns the wall time from Start to the last rank's finish.
func (r *refReplay) ExecutionTime() sim.Time {
	var end sim.Time
	for _, rs := range r.ranks {
		if rs.finishedAt > end {
			end = rs.finishedAt
		}
	}
	return end - r.startAt
}

// Err reports stuck ranks after the engine has drained — a mismatched
// trace (send without receive or vice versa) shows up here.
func (r *refReplay) Err() error {
	if r.Finished() {
		return nil
	}
	for _, rs := range r.ranks {
		if !rs.finished {
			next := rs.prog
			ev := "end"
			if e, ok := next.Next(); ok {
				ev = e.Op.String()
			}
			return fmt.Errorf("trace: rank %d stuck at pc=%d (%s), blocked=%d, %d reqs",
				rs.rank, rs.prog.PC(), ev, rs.blocked, len(rs.reqs))
		}
	}
	return nil
}

// step advances a rank until it blocks or finishes.
func (r *refReplay) step(e *sim.Engine, rs *refRankState) {
	rs.blocked = refNotBlocked
	for {
		ev, ok := rs.prog.Next()
		if !ok {
			break
		}
		switch ev.Op {
		case trace.OpCompute:
			rs.blocked = refBlockedCompute
			r.after(e, ev.Dur, rs)
			return

		case trace.OpIsend:
			r.inject(e, rs, &ev)

		case trace.OpSend:
			req := r.inject(e, rs, &ev)
			if req != nil && !req.done {
				rs.blocked = refBlockedWaitSend
				rs.sendWait = req
				return
			}
			if req != nil {
				rs.retire(req)
			}

		case trace.OpIrecv:
			req := &refRequest{isRecv: true, src: ev.Peer}
			if rs.inbox[ev.Peer] > 0 {
				rs.inbox[ev.Peer]--
				req.done = true
			}
			rs.reqs = append(rs.reqs, req)

		case trace.OpRecv:
			// A blocking receive is Irecv + wait-for-that-request; express
			// it through the same queue so message matching stays in
			// posting order.
			req := &refRequest{isRecv: true, src: ev.Peer}
			if rs.inbox[ev.Peer] > 0 {
				rs.inbox[ev.Peer]--
				req.done = true
				continue
			}
			rs.reqs = append(rs.reqs, req)
			rs.blocked = refBlockedWaitSend // identical semantics: one request
			rs.sendWait = req
			return

		case trace.OpWait:
			if len(rs.reqs) == 0 {
				continue
			}
			if rs.reqs[0].done {
				rs.reqs = rs.reqs[1:]
				continue
			}
			rs.blocked = refBlockedWaitOne
			return

		case trace.OpWaitall:
			if rs.allDone() {
				rs.reqs = rs.reqs[:0]
				continue
			}
			rs.blocked = refBlockedWaitAll
			return

		default:
			panic(fmt.Sprintf("trace: rank %d: unloweable op %v at pc %d", rs.rank, ev.Op, rs.prog.PC()-1))
		}
	}
	if !rs.finished {
		rs.finished = true
		rs.finishedAt = e.Now()
		r.finishedCount++
	}
}

func (rs *refRankState) allDone() bool {
	for _, q := range rs.reqs {
		if !q.done {
			return false
		}
	}
	return true
}

// retire removes a specific request (blocking sends complete out of order).
func (rs *refRankState) retire(req *refRequest) {
	for i, q := range rs.reqs {
		if q == req {
			rs.reqs = append(rs.reqs[:i], rs.reqs[i+1:]...)
			return
		}
	}
}

// inject sends the event's message and registers the send request.
func (r *refReplay) inject(e *sim.Engine, rs *refRankState, ev *trace.Event) *refRequest {
	if ev.Peer == rs.rank {
		panic(fmt.Sprintf("trace: rank %d sends to itself", rs.rank))
	}
	req := &refRequest{}
	rs.reqs = append(rs.reqs, req)
	rs.mpiSeq++
	msgID := r.Net.NICs[r.node(rs.rank)].Send(e, r.node(ev.Peer), ev.Bytes, ev.MPIType, rs.mpiSeq)
	r.sendOwner[msgID] = &refSendRef{rank: rs.rank, req: req}
	return req
}

func (r *refReplay) after(e *sim.Engine, d sim.Time, rs *refRankState) {
	e.After(d, func(e *sim.Engine) { r.step(e, rs) })
}

// makeOnMessage builds the delivery hook for one receiving rank: it
// completes the sender's request (the message is fully delivered — the
// rendezvous completion) and matches the receiver's posted receives.
func (r *refReplay) makeOnMessage(dstRank int) network.MessageHandler {
	return func(e *sim.Engine, srcNode topology.NodeID, msgID uint64, bytes int, mpiType uint8, seq uint32) {
		if ref, ok := r.sendOwner[msgID]; ok {
			delete(r.sendOwner, msgID)
			ref.req.done = true
			r.poke(e, r.ranks[ref.rank])
		}
		srcRank, ok := r.nodeRank[srcNode]
		if !ok {
			return
		}
		rs := r.ranks[dstRank]
		// Match the oldest incomplete posted receive from srcRank.
		for _, q := range rs.reqs {
			if q.isRecv && !q.done && q.src == srcRank {
				q.done = true
				r.poke(e, rs)
				return
			}
		}
		rs.inbox[srcRank]++
	}
}

// poke re-checks a blocked rank's condition and resumes it when satisfied.
func (r *refReplay) poke(e *sim.Engine, rs *refRankState) {
	switch rs.blocked {
	case refBlockedWaitSend:
		if rs.sendWait != nil && rs.sendWait.done {
			rs.retire(rs.sendWait)
			rs.sendWait = nil
			r.resume(e, rs)
		}
	case refBlockedWaitOne:
		if len(rs.reqs) > 0 && rs.reqs[0].done {
			rs.reqs = rs.reqs[1:]
			r.resume(e, rs)
		}
	case refBlockedWaitAll:
		if rs.allDone() {
			rs.reqs = rs.reqs[:0]
			r.resume(e, rs)
		}
	}
}

func (r *refReplay) resume(e *sim.Engine, rs *refRankState) {
	rs.blocked = refNotBlocked
	// Resume via a fresh event: poke runs inside a delivery callback and a
	// long chain of resumes would otherwise recurse.
	e.After(0, func(e *sim.Engine) { r.step(e, rs) })
}
