package trace

import (
	"bytes"
	"strings"
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// FuzzReadTrace: the trace parser must never panic on arbitrary input, any
// trace it accepts must serialize and re-parse identically, and replaying
// an accepted trace ends in an error or a finished replay, never a panic.
func FuzzReadTrace(f *testing.F) {
	b := NewBuilder("seed", 4)
	b.Compute(0, 100)
	b.Send(0, 1, 2048)
	b.Recv(1, 0)
	b.Allreduce(64)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("prdrb-trace 1\nranks 2\nrank 0\nc 5\n")
	f.Add("")
	f.Add("prdrb-trace 1\nranks 999999999\n")
	// Parsed fine, then took the replay down: peers outside the trace, a
	// self-send, negative and overflowing durations, a second 'ranks'.
	f.Add("prdrb-trace 1\nranks 2\nrank 0\ns 99 10 1\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\ns -1 10 1\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\ns 0 10 1\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\nc -5\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\nc 100\nc 9223372036854775807\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\ns 1 9223372036854775807 1\nrank 1\nr 0 1\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\nc 5\nranks 2\n")
	f.Add("prdrb-trace 1\nranks 2\nrank 0\nw 300\n")

	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, tr); err != nil {
			t.Fatalf("accepted trace does not serialize: %v", err)
		}
		tr2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if d := diffPrograms(tr2, tr); d != "" || tr2.Name != tr.Name {
			t.Fatalf("unstable trace round trip: %s", d)
		}
		// Replay it on ft-4-3. The budget keeps one input's fabric work
		// small; it is the harness's, not the format's.
		var bytes int
		for r := 0; r < tr.Ranks; r++ {
			c := tr.Cursor(r)
			for ev, ok := c.Next(); ok; ev, ok = c.Next() {
				bytes += min(ev.Bytes, 1<<22)
			}
		}
		if tr.TotalEvents() > 1<<14 || bytes > 1<<22 {
			return
		}
		cfg := network.DefaultConfig()
		cfg.GenerateAcks = false
		net := network.MustNew(sim.NewEngine(), topology.NewKAryNTree(4, 3), cfg, detPolicy{}, nil)
		rep, err := NewReplay(net, tr, nil)
		if err != nil {
			return
		}
		rep.Start(0)
		net.Eng.Run(50 * sim.Millisecond)
		if rep.Finished() != (rep.Err() == nil) {
			t.Fatalf("finished=%v but Err()=%v", rep.Finished(), rep.Err())
		}
	})
}
