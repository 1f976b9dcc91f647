package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"prdrb/internal/sim"
)

// GOAL-style dependency-graph schedules. Where a Trace is a per-rank
// *sequential* program (implicit dependency from each event to the next),
// a Goal is a per-rank *graph*: send/recv/calc nodes with explicit
// `requires` edges, in the spirit of the GOAL language used by
// LogGOPSim-class simulators. A node fires as soon as every node it
// requires has completed, so independent operations overlap without the
// trace engine's posting-order bookkeeping, and schedules produced by
// external tools can be replayed directly.
//
// Format (line-oriented text, '#' comments):
//
//	prdrb-goal 1
//	name <schedule name>
//	ranks <N>
//	rank <r>                                 # starts rank r's node list
//	l<id>: calc <durNs>                      # local computation
//	l<id>: send <bytes>b to <peer> [tag <t>] [type <mpi>]
//	l<id>: recv <bytes>b from <peer> [tag <t>] [type <mpi>]
//	l<id> requires l<id2>                    # dependency edge (id2 -> id)
//
// Labels are arbitrary non-negative integers, unique within a rank.
// Messages match on (source rank, tag). The optional `type` attribute
// carries the §3.3.1 MPI_type the node was lowered from, so packets stay
// attributable to logical collectives.

// GoalOp is a dependency-graph node kind.
type GoalOp uint8

// Goal node kinds.
const (
	GoalCalc GoalOp = iota
	GoalSend
	GoalRecv
)

func (o GoalOp) String() string {
	switch o {
	case GoalCalc:
		return "calc"
	case GoalSend:
		return "send"
	case GoalRecv:
		return "recv"
	}
	return "?"
}

// maxGoalTag bounds message-matching tags so they fit the wire MPI_seq
// field with room to spare.
const maxGoalTag = 1 << 30

// GoalNode is one node of a rank's dependency graph. Requires lists the
// indices (within the same rank's node slice) that must complete before
// this node fires.
type GoalNode struct {
	Op       GoalOp
	Peer     int      // counterpart rank (send/recv)
	Bytes    int      // message size (send/recv)
	Tag      int      // matching tag (send/recv)
	Dur      sim.Time // computation duration (calc)
	MPIType  uint8    // logical MPI call the node was lowered from
	Requires []int
}

// Goal is a complete per-rank dependency-graph schedule.
type Goal struct {
	Name  string
	Ranks int
	// Progs holds each rank's nodes; Requires entries index into the
	// owning rank's slice.
	Progs [][]GoalNode
}

// TotalNodes sums node counts across ranks.
func (g *Goal) TotalNodes() int {
	n := 0
	for _, prog := range g.Progs {
		n += len(prog)
	}
	return n
}

// Validate checks the structural invariants every consumer relies on:
// rank/peer ranges and tags, the trace's bounds on message size and on
// compute time over all ranks (checkEvent), in-range acyclic dependency
// edges. ReadGOAL validates automatically; call this on hand-built Goals
// before replaying them.
func (g *Goal) Validate() error {
	if g.Ranks < 2 || g.Ranks > 1<<20 {
		return fmt.Errorf("goal: implausible rank count %d", g.Ranks)
	}
	if len(g.Progs) != g.Ranks {
		return fmt.Errorf("goal: %d rank programs for %d ranks", len(g.Progs), g.Ranks)
	}
	var compute sim.Time
	for r, prog := range g.Progs {
		for id, nd := range prog {
			if err := g.checkNode(nd, r, &compute); err != nil {
				return fmt.Errorf("goal: rank %d node %d: %w", r, id, err)
			}
			seen := make(map[int]bool, len(nd.Requires))
			for _, dep := range nd.Requires {
				if dep < 0 || dep >= len(prog) {
					return fmt.Errorf("goal: rank %d node %d: requires dangling node %d", r, id, dep)
				}
				if dep == id {
					return fmt.Errorf("goal: rank %d node %d: requires itself", r, id)
				}
				if seen[dep] {
					return fmt.Errorf("goal: rank %d node %d: duplicate requires %d", r, id, dep)
				}
				seen[dep] = true
			}
		}
		if err := checkAcyclic(prog); err != nil {
			return fmt.Errorf("goal: rank %d: %w", r, err)
		}
	}
	return nil
}

// checkNode holds node nd of rank r to checkEvent, the rule of the trace
// event it stands for, with compute the calc time of the nodes checked
// before it on every rank, as a trace counts it. A receive's size, which a
// trace receive does not carry, is held to a send's bounds.
func (g *Goal) checkNode(nd GoalNode, r int, compute *sim.Time) error {
	ev := Event{Op: OpSend, Peer: nd.Peer, Bytes: nd.Bytes}
	switch nd.Op {
	case GoalCalc:
		ev = Event{Op: OpCompute, Dur: nd.Dur}
	case GoalRecv:
		if nd.Bytes < 0 || nd.Bytes > maxMessageBytes {
			return fmt.Errorf("message size %d out of range [0,%d]", nd.Bytes, maxMessageBytes)
		}
		ev.Op = OpRecv
	case GoalSend:
	default:
		return fmt.Errorf("unknown op %d", nd.Op)
	}
	if nd.Op != GoalCalc && (nd.Tag < 0 || nd.Tag >= maxGoalTag) {
		return fmt.Errorf("tag %d out of range", nd.Tag)
	}
	return checkEvent(ev, r, g.Ranks, compute)
}

// checkAcyclic runs Kahn's algorithm over one rank's dependency graph.
func checkAcyclic(prog []GoalNode) error {
	indeg := make([]int, len(prog))
	dependents := make([][]int, len(prog))
	for id, nd := range prog {
		indeg[id] = len(nd.Requires)
		for _, dep := range nd.Requires {
			dependents[dep] = append(dependents[dep], id)
		}
	}
	queue := make([]int, 0, len(prog))
	for id := range prog {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	done := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		done++
		for _, d := range dependents[id] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if done != len(prog) {
		return fmt.Errorf("dependency cycle (%d of %d nodes unreachable)", len(prog)-done, len(prog))
	}
	return nil
}

const goalMagic = "prdrb-goal 1"

// WriteGOAL serializes g in canonical form: each rank's nodes in index
// order labeled l0..l(k-1), followed by that rank's requires lines.
func WriteGOAL(w io.Writer, g *Goal) error {
	if err := g.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, goalMagic)
	fmt.Fprintf(bw, "name %s\n", g.Name)
	fmt.Fprintf(bw, "ranks %d\n", g.Ranks)
	for r, prog := range g.Progs {
		if len(prog) == 0 {
			continue
		}
		fmt.Fprintf(bw, "rank %d\n", r)
		for id, nd := range prog {
			switch nd.Op {
			case GoalCalc:
				fmt.Fprintf(bw, "l%d: calc %d\n", id, int64(nd.Dur))
			case GoalSend:
				fmt.Fprintf(bw, "l%d: send %db to %d", id, nd.Bytes, nd.Peer)
				writeGoalAttrs(bw, &nd)
			case GoalRecv:
				fmt.Fprintf(bw, "l%d: recv %db from %d", id, nd.Bytes, nd.Peer)
				writeGoalAttrs(bw, &nd)
			}
		}
		for id, nd := range prog {
			for _, dep := range nd.Requires {
				fmt.Fprintf(bw, "l%d requires l%d\n", id, dep)
			}
		}
	}
	return bw.Flush()
}

func writeGoalAttrs(bw *bufio.Writer, nd *GoalNode) {
	if nd.Tag != 0 {
		fmt.Fprintf(bw, " tag %d", nd.Tag)
	}
	if nd.MPIType != 0 {
		fmt.Fprintf(bw, " type %d", nd.MPIType)
	}
	bw.WriteByte('\n')
}

// goalEdge is an unresolved requires line (labels, not indices).
type goalEdge struct {
	rank     int
	from, to int // `l<from> requires l<to>`
	lineNo   int
}

// ReadGOAL parses and validates a serialized dependency-graph schedule.
// Rejected inputs include duplicate or dangling labels, out-of-range
// ranks and peers, self-messages, sizes and calc totals past the trace's
// bounds, and dependency cycles.
func ReadGOAL(r io.Reader) (*Goal, error) {
	lr, err := newLineReader(r, "goal", goalMagic)
	if err != nil {
		return nil, err
	}
	fail := lr.fail
	g := &Goal{}
	cur := -1
	// labels maps each rank's declared labels to node indices.
	var labels []map[int]int
	var edges []goalEdge

	parseLabel := func(tok string) (int, error) {
		if !strings.HasPrefix(tok, "l") {
			return 0, fail("bad label %q (want l<id>)", tok)
		}
		v, err := strconv.Atoi(tok[1:])
		if err != nil || v < 0 {
			return 0, fail("bad label %q", tok)
		}
		return v, nil
	}

	for {
		line, ok := lr.next()
		if !ok {
			break
		}
		// Directive lines.
		word, rest, _ := strings.Cut(line, " ")
		switch word {
		case "name":
			g.Name = rest
			continue
		case "ranks":
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, fail("bad rank count %q", rest)
			}
			if v < 2 || v > 1<<20 {
				return nil, fail("implausible rank count %d", v)
			}
			g.Ranks = int(v)
			g.Progs = make([][]GoalNode, g.Ranks)
			labels = make([]map[int]int, g.Ranks)
			continue
		case "rank":
			if g.Progs == nil {
				return nil, fail("'rank' before 'ranks'")
			}
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil || v < 0 || int(v) >= g.Ranks {
				return nil, fail("rank %q out of range", rest)
			}
			cur = int(v)
			if labels[cur] == nil {
				labels[cur] = make(map[int]int)
			}
			continue
		}

		if cur < 0 {
			return nil, fail("node line before any 'rank' line")
		}

		// `l<a> requires l<b>` — resolved after the whole file is read, so
		// edges may name nodes declared later in the rank's section.
		if fields := strings.Fields(line); len(fields) == 3 && fields[1] == "requires" {
			from, err := parseLabel(fields[0])
			if err != nil {
				return nil, err
			}
			to, err := parseLabel(fields[2])
			if err != nil {
				return nil, err
			}
			edges = append(edges, goalEdge{rank: cur, from: from, to: to, lineNo: lr.lineNo})
			continue
		}

		// `l<id>: <op> ...`
		head, body, found := strings.Cut(line, ":")
		if !found {
			return nil, fail("unparseable line %q", line)
		}
		label, err := parseLabel(strings.TrimSpace(head))
		if err != nil {
			return nil, err
		}
		if _, dup := labels[cur][label]; dup {
			return nil, fail("duplicate label l%d in rank %d", label, cur)
		}
		nd, err := parseGoalNode(strings.Fields(body), fail)
		if err != nil {
			return nil, err
		}
		labels[cur][label] = len(g.Progs[cur])
		g.Progs[cur] = append(g.Progs[cur], nd)
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	if g.Ranks == 0 {
		return nil, fmt.Errorf("goal: no 'ranks' directive")
	}

	// Resolve dependency edges label -> index.
	for _, e := range edges {
		from, ok := labels[e.rank][e.from]
		if !ok {
			return nil, fmt.Errorf("goal: line %d: requires on undeclared node l%d", e.lineNo, e.from)
		}
		to, ok := labels[e.rank][e.to]
		if !ok {
			return nil, fmt.Errorf("goal: line %d: requires dangling node l%d", e.lineNo, e.to)
		}
		g.Progs[e.rank][from].Requires = append(g.Progs[e.rank][from].Requires, to)
	}
	// Canonicalize edge order so parse→write round trips are stable no
	// matter how the input interleaved its requires lines.
	for _, prog := range g.Progs {
		for id := range prog {
			sort.Ints(prog[id].Requires)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// parseGoalNode parses the body of a node line (after "l<id>:").
func parseGoalNode(fields []string, fail func(string, ...any) error) (GoalNode, error) {
	var nd GoalNode
	if len(fields) == 0 {
		return nd, fail("empty node body")
	}
	num := func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fail("bad integer %q", s)
		}
		return v, nil
	}
	switch fields[0] {
	case "calc":
		if len(fields) != 2 {
			return nd, fail("calc wants one duration field")
		}
		v, err := num(fields[1])
		if err != nil {
			return nd, err
		}
		nd.Op = GoalCalc
		nd.Dur = sim.Time(v)
		return nd, nil
	case "send", "recv":
		// send <bytes>b to <peer> / recv <bytes>b from <peer>
		prep := "to"
		nd.Op = GoalSend
		if fields[0] == "recv" {
			prep = "from"
			nd.Op = GoalRecv
		}
		if len(fields) < 4 || !strings.HasSuffix(fields[1], "b") || fields[2] != prep {
			return nd, fail("want '%s <bytes>b %s <peer>'", fields[0], prep)
		}
		bytes, err := num(strings.TrimSuffix(fields[1], "b"))
		if err != nil {
			return nd, err
		}
		peer, err := num(fields[3])
		if err != nil {
			return nd, err
		}
		nd.Bytes = int(bytes)
		nd.Peer = int(peer)
		rest := fields[4:]
		for len(rest) > 0 {
			if len(rest) < 2 {
				return nd, fail("dangling attribute %q", rest[0])
			}
			v, err := num(rest[1])
			if err != nil {
				return nd, err
			}
			switch rest[0] {
			case "tag":
				nd.Tag = int(v)
			case "type":
				if v < 0 || v > 255 {
					return nd, fail("mpi type %d out of range", v)
				}
				nd.MPIType = uint8(v)
			default:
				return nd, fail("unknown attribute %q", rest[0])
			}
			rest = rest[2:]
		}
		return nd, nil
	}
	return nd, fail("unknown node op %q", fields[0])
}

// GoalFromTrace converts a sequential trace into an equivalent dependency
// graph. Each rank's program is walked once with a frontier set — the
// nodes the next operation must require. Blocking operations replace the
// frontier; nonblocking sends/receives hang off it without joining it
// (later operations overlap with the transfer) until Wait/Waitall merges
// them back in. Message-matching tags are per-(source,destination)
// sequence numbers, preserving the trace engine's posting-order matching.
func GoalFromTrace(tr *Trace) (*Goal, error) {
	g := &Goal{Name: tr.Name, Ranks: tr.Ranks, Progs: make([][]GoalNode, tr.Ranks)}
	type pair struct{ src, dst int }
	sendTag := make(map[pair]int)
	recvTag := make(map[pair]int)
	for r := range tr.progs {
		frontier := []int{}
		outstanding := []int{}
		add := func(nd GoalNode) int {
			nd.Requires = append([]int(nil), frontier...)
			g.Progs[r] = append(g.Progs[r], nd)
			return len(g.Progs[r]) - 1
		}
		nextTag := func(m map[pair]int, p pair) (int, error) {
			t := m[p]
			if t >= maxGoalTag {
				return 0, fmt.Errorf("goal: rank %d: tag space exhausted for pair %d->%d", r, p.src, p.dst)
			}
			m[p] = t + 1
			return t, nil
		}
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			switch ev.Op {
			case OpCompute:
				id := add(GoalNode{Op: GoalCalc, Dur: ev.Dur, MPIType: ev.MPIType})
				frontier = []int{id}
			case OpSend, OpIsend:
				tag, err := nextTag(sendTag, pair{r, ev.Peer})
				if err != nil {
					return nil, err
				}
				id := add(GoalNode{Op: GoalSend, Peer: ev.Peer, Bytes: ev.Bytes, Tag: tag, MPIType: ev.MPIType})
				if ev.Op == OpSend {
					frontier = []int{id}
				} else {
					outstanding = append(outstanding, id)
				}
			case OpRecv, OpIrecv:
				tag, err := nextTag(recvTag, pair{ev.Peer, r})
				if err != nil {
					return nil, err
				}
				id := add(GoalNode{Op: GoalRecv, Peer: ev.Peer, Tag: tag, MPIType: ev.MPIType})
				if ev.Op == OpRecv {
					frontier = []int{id}
				} else {
					outstanding = append(outstanding, id)
				}
			case OpWait:
				if len(outstanding) > 0 {
					frontier = append(frontier, outstanding[0])
					outstanding = outstanding[1:]
				}
			case OpWaitall:
				frontier = append(frontier, outstanding...)
				outstanding = outstanding[:0]
			default:
				return nil, fmt.Errorf("goal: rank %d pc %d: cannot convert op %v", r, c.PC()-1, ev.Op)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
