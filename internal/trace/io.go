package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"prdrb/internal/sim"
)

// Trace (de)serialization — the on-disk trace files of the paper's
// application-characterization framework (Fig 4.19: "a trace file is
// obtained from an application execution. Later, each node in the network
// will read an input trace file and simulate the events").
//
// Format (line-oriented text, '#' comments):
//
//	prdrb-trace 1
//	name <workload name>
//	ranks <N>
//	callmix <mpiType> <count>        # repeated
//	rank <r>                         # starts rank r's event list
//	c <durNs>                        # compute
//	s <peer> <bytes> <mpiType>       # blocking send
//	i <peer> <bytes> <mpiType>       # isend
//	r <peer> <mpiType>               # blocking recv
//	q <peer> <mpiType>               # irecv
//	w <mpiType>                      # wait
//	a <mpiType>                      # waitall

const traceMagic = "prdrb-trace 1"

// WriteTrace serializes tr.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceMagic)
	fmt.Fprintf(bw, "name %s\n", tr.Name)
	fmt.Fprintf(bw, "ranks %d\n", tr.Ranks)
	for ty := 0; ty <= math.MaxUint8; ty++ {
		if n := tr.CallMix[uint8(ty)]; n > 0 {
			fmt.Fprintf(bw, "callmix %d %d\n", ty, n)
		}
	}
	for r := range tr.progs {
		fmt.Fprintf(bw, "rank %d\n", r)
		c := tr.Cursor(r)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			switch ev.Op {
			case OpCompute:
				fmt.Fprintf(bw, "c %d\n", int64(ev.Dur))
			case OpSend:
				fmt.Fprintf(bw, "s %d %d %d\n", ev.Peer, ev.Bytes, ev.MPIType)
			case OpIsend:
				fmt.Fprintf(bw, "i %d %d %d\n", ev.Peer, ev.Bytes, ev.MPIType)
			case OpRecv:
				fmt.Fprintf(bw, "r %d %d\n", ev.Peer, ev.MPIType)
			case OpIrecv:
				fmt.Fprintf(bw, "q %d %d\n", ev.Peer, ev.MPIType)
			case OpWait:
				fmt.Fprintf(bw, "w %d\n", ev.MPIType)
			case OpWaitall:
				fmt.Fprintf(bw, "a %d\n", ev.MPIType)
			default:
				return fmt.Errorf("trace: cannot serialize op %v", ev.Op)
			}
		}
	}
	return bw.Flush()
}

// lineReader reads the trace and GOAL text formats: it yields their
// non-blank, non-comment lines trimmed, and numbers errors by line.
type lineReader struct {
	sc     *bufio.Scanner
	lineNo int
	prefix string
}

// newLineReader starts reading r and checks its first line is magic;
// prefix ("trace", "goal") leads every error.
func newLineReader(r io.Reader, prefix, magic string) (*lineReader, error) {
	lr := &lineReader{sc: bufio.NewScanner(r), prefix: prefix}
	lr.sc.Buffer(make([]byte, 1<<16), 1<<24)
	if line, ok := lr.next(); !ok || line != magic {
		return nil, lr.fail("missing %q header", magic)
	}
	return lr, nil
}

// next returns the next line that is neither blank nor a comment.
func (lr *lineReader) next() (string, bool) {
	for lr.sc.Scan() {
		lr.lineNo++
		line := strings.TrimSpace(lr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

// fail returns an error at the current line.
func (lr *lineReader) fail(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: %s", lr.prefix, lr.lineNo, fmt.Sprintf(format, args...))
}

// ReadTrace parses a serialized trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	lr, err := newLineReader(r, "trace", traceMagic)
	if err != nil {
		return nil, err
	}
	fail := lr.fail
	tr := &Trace{CallMix: make(map[uint8]int64)}
	cur := -1
	ints := func(fields []string, want int) ([]int64, error) {
		if len(fields) != want {
			return nil, fail("want %d fields, got %d", want, len(fields))
		}
		out := make([]int64, want)
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fail("bad integer %q", f)
			}
			out[i] = v
		}
		return out, nil
	}
	// push appends an event to the current rank; mpiType is its tag as
	// read, checked here because every event line ends in one.
	push := func(ev Event, mpiType int64) error {
		if cur < 0 {
			return fail("event before any 'rank' line")
		}
		if mpiType < 0 || mpiType > math.MaxUint8 {
			return fail("MPI type %d out of range [0,%d]", mpiType, math.MaxUint8)
		}
		ev.MPIType = uint8(mpiType)
		tr.progs[cur] = appendEvent(tr.progs[cur], ev)
		tr.events++
		return nil
	}

	for {
		line, ok := lr.next()
		if !ok {
			break
		}
		op, rest, _ := strings.Cut(line, " ")
		fields := strings.Fields(rest)
		switch op {
		case "name":
			tr.Name = rest
		case "ranks":
			v, err := ints(fields, 1)
			if err != nil {
				return nil, err
			}
			if tr.progs != nil {
				return nil, fail("repeated 'ranks'")
			}
			if v[0] < 2 || v[0] > 1<<20 {
				return nil, fail("implausible rank count %d", v[0])
			}
			tr.Ranks = int(v[0])
			tr.progs = make([][]byte, tr.Ranks)
		case "callmix":
			v, err := ints(fields, 2)
			if err != nil {
				return nil, err
			}
			if v[0] < 0 || v[0] > math.MaxUint8 || v[1] < 0 {
				return nil, fail("callmix %d %d out of range", v[0], v[1])
			}
			tr.CallMix[uint8(v[0])] = v[1]
		case "rank":
			v, err := ints(fields, 1)
			if err != nil {
				return nil, err
			}
			if tr.progs == nil {
				return nil, fail("'rank' before 'ranks'")
			}
			if v[0] < 0 || int(v[0]) >= tr.Ranks {
				return nil, fail("rank %d out of range", v[0])
			}
			cur = int(v[0])
		case "c":
			v, err := ints(fields, 1)
			if err != nil {
				return nil, err
			}
			if err := push(Event{Op: OpCompute, Dur: sim.Time(v[0])}, 0); err != nil {
				return nil, err
			}
		case "s", "i":
			v, err := ints(fields, 3)
			if err != nil {
				return nil, err
			}
			o := OpSend
			if op == "i" {
				o = OpIsend
			}
			if err := push(Event{Op: o, Peer: int(v[0]), Bytes: int(v[1])}, v[2]); err != nil {
				return nil, err
			}
		case "r", "q":
			v, err := ints(fields, 2)
			if err != nil {
				return nil, err
			}
			o := OpRecv
			if op == "q" {
				o = OpIrecv
			}
			if err := push(Event{Op: o, Peer: int(v[0])}, v[1]); err != nil {
				return nil, err
			}
		case "w", "a":
			v, err := ints(fields, 1)
			if err != nil {
				return nil, err
			}
			o := OpWait
			if op == "a" {
				o = OpWaitall
			}
			if err := push(Event{Op: o}, v[0]); err != nil {
				return nil, err
			}
		default:
			return nil, fail("unknown directive %q", op)
		}
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	if tr.Ranks == 0 {
		return nil, fmt.Errorf("trace: no 'ranks' directive")
	}
	return tr, nil
}
