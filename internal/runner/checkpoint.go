package runner

import (
	"bytes"
	"fmt"
	"os"

	"prdrb/internal/ckpt"
	"prdrb/internal/core"
	"prdrb/internal/routing"
	"prdrb/internal/sim"
)

// Checkpoint/restore for assembled simulations.
//
// Capture is a full serialization of the simulation's behavioral state at
// a quiescent point: event queues and clocks (engine section), ports,
// NICs and packets in flight (network section), metric accumulators,
// controller state, fault progress, traffic RNG streams and routing
// policy state — each as one deterministic byte section of the ckpt
// container, preceded by a meta section naming the configuration digest
// and the capture time.
//
// Restore uses the replay-verify strategy: because the engine is
// deterministic (a run is a pure function of configuration and seed), a
// resumed process rebuilds the simulation from the identical
// configuration, re-executes to the checkpoint time, and then proves it
// reached the very state the file describes by re-capturing and comparing
// section bytes. A mismatch — different binary, different flags, a
// non-deterministic host effect — fails the resume instead of silently
// diverging. Byte-identical continuation is then automatic: the resumed
// process holds the same state an uninterrupted run holds at that time.
//
// Checkpoint times are quantized to CheckpointQuantum: sharded groups may
// only stop on their absolute window grid (see ShardGroup.Run), serial
// engines anywhere.

// CheckpointMeta is the decoded identity header of a checkpoint file.
type CheckpointMeta struct {
	// Digest fingerprints the full run configuration (experiment,
	// network, workloads, fault plans). Resume refuses a digest mismatch.
	Digest uint64
	// At is the simulated time the checkpoint was captured.
	At sim.Time
	// Quantum is the capture grid (the shard window, or 1 when serial).
	Quantum sim.Time
	// Shards is the engine layout the capture ran under.
	Shards int
}

// CheckpointQuantum returns the time grid checkpoints must land on: the
// window width for sharded runs (captures happen at barriers), 1 ns for
// serial runs.
func (s *Sim) CheckpointQuantum() sim.Time {
	if g := s.Net.Group(); g != nil {
		return g.Window
	}
	return 1
}

// AlignCheckpoint rounds t up to the checkpoint grid.
func (s *Sim) AlignCheckpoint(t sim.Time) sim.Time {
	q := s.CheckpointQuantum()
	if rem := t % q; rem != 0 {
		t += q - rem
	}
	return t
}

// ConfigDigest fingerprints everything that determines the run: the
// experiment shape, the resolved network config, and the configuration
// log of every workload/fault installation in call order.
func (s *Sim) ConfigDigest() uint64 {
	parts := []string{
		fmt.Sprintf("policy=%s", s.Exp.Policy),
		fmt.Sprintf("seed=%d", s.Exp.Seed),
		fmt.Sprintf("shards=%d", s.Exp.Shards),
		fmt.Sprintf("serieswindow=%d", s.Exp.SeriesWindow),
		fmt.Sprintf("topo=%s/%d/%d", s.Exp.Topology.Name(), s.Exp.Topology.NumRouters(), s.Exp.Topology.NumTerminals()),
		fmt.Sprintf("net=%+v", s.Net.Cfg),
		fmt.Sprintf("drb=%+v", s.Exp.DRB),
	}
	parts = append(parts, s.configLog...)
	return ckpt.DigestStrings(parts...)
}

// CaptureCheckpoint serializes the simulation's current state. The
// simulation must be quiescent: between Execute calls (serial), or at a
// window barrier with drained rings (sharded) — which Execute guarantees
// on return.
func (s *Sim) CaptureCheckpoint() (*ckpt.File, error) {
	if g := s.Net.Group(); g != nil && !g.Quiescent() {
		return nil, fmt.Errorf("prdrb: checkpoint requires a quiescent shard group (rings not drained)")
	}
	// The capture time is the Execute horizon, not Now(): a serial engine
	// parks at its last processed event, and replaying to that event time
	// would exclude the event itself (Run stops before at >= horizon).
	at := s.executedTo

	var meta ckpt.Enc
	meta.U64(s.ConfigDigest())
	meta.I64(int64(at))
	meta.I64(int64(s.CheckpointQuantum()))
	meta.Int(s.Exp.Shards)

	var eng ckpt.Enc
	if g := s.Net.Group(); g != nil {
		eng.Bool(true)
		g.EncodeState(&eng)
	} else {
		eng.Bool(false)
		s.Eng.EncodeState(&eng)
	}

	var net ckpt.Enc
	s.Net.EncodeState(&net)

	// Metrics encode per shard (the merged view is derived state); the
	// serial network has exactly one shard.
	var met ckpt.Enc
	met.Int(len(s.Net.Shards))
	for _, sh := range s.Net.Shards {
		if sh.Collector == nil {
			met.Bool(false)
			continue
		}
		met.Bool(true)
		sh.Collector.EncodeState(&met)
	}

	var ctl ckpt.Enc
	core.EncodeControllers(&ctl, s.Controllers)

	var flt ckpt.Enc
	flt.Int(len(s.injectors))
	for _, inj := range s.injectors {
		inj.EncodeState(&flt)
	}

	var trf ckpt.Enc
	trf.Int(len(s.sources))
	for _, src := range s.sources {
		src.EncodeState(&trf)
	}

	var rte ckpt.Enc
	routing.EncodePolicyState(&rte, s.Net.Policy)

	var run ckpt.Enc
	run.Int(len(s.configLog))
	for _, line := range s.configLog {
		run.Str(line)
	}
	run.U64(s.rng.State()[0])
	run.U64(s.rng.State()[1])
	run.U64(s.rng.State()[2])
	run.U64(s.rng.State()[3])
	// Congestion sampler state: window history and dump summaries. Replay
	// regenerates all of it deterministically (the sampler is ordinary
	// engine/barrier work), so encoding it extends verify coverage to the
	// observability plane at zero restore complexity.
	if cs := s.cong; cs == nil {
		run.Bool(false)
	} else {
		run.Bool(true)
		run.I64(int64(cs.window))
		run.I64(int64(cs.lastClose))
		run.I64(cs.prevStall)
		run.I64(cs.prevDrops)
		run.F64(cs.prevMaxUtil)
		run.Int(len(cs.windows))
		for _, w := range cs.windows {
			run.I64(w.EndNs)
			run.Int(len(w.Util))
			for _, u := range w.Util {
				run.F64(u)
			}
			run.F64(w.MaxLinkUtil)
			run.Str(w.MaxLink)
			run.I64(w.Drops)
			run.I64(w.StallNs)
		}
		run.Int(len(cs.dumps))
		for _, d := range cs.dumps {
			run.I64(d.AtNs)
			run.Str(d.Trigger)
			run.Str(d.Detail)
			run.Int(len(d.Events))
		}
	}

	return &ckpt.File{Version: ckpt.Version, Sections: []ckpt.Section{
		{ID: ckpt.SecMeta, Payload: meta.Bytes()},
		{ID: ckpt.SecEngine, Payload: eng.Bytes()},
		{ID: ckpt.SecNetwork, Payload: net.Bytes()},
		{ID: ckpt.SecMetrics, Payload: met.Bytes()},
		{ID: ckpt.SecCore, Payload: ctl.Bytes()},
		{ID: ckpt.SecFaults, Payload: flt.Bytes()},
		{ID: ckpt.SecTraffic, Payload: trf.Bytes()},
		{ID: ckpt.SecRouting, Payload: rte.Bytes()},
		{ID: ckpt.SecRunner, Payload: run.Bytes()},
	}}, nil
}

// WriteCheckpoint captures the current state and writes it atomically
// (temp file + rename). It returns the checkpoint size in bytes.
func (s *Sim) WriteCheckpoint(path string) (int, error) {
	f, err := s.CaptureCheckpoint()
	if err != nil {
		return 0, err
	}
	data := ckpt.Encode(f)
	if err := ckpt.WriteFileAtomic(path, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// ReadCheckpointMeta parses a checkpoint file's identity header.
func ReadCheckpointMeta(data []byte) (CheckpointMeta, error) {
	f, err := ckpt.Read(data)
	if err != nil {
		return CheckpointMeta{}, err
	}
	payload, ok := f.Section(ckpt.SecMeta)
	if !ok {
		return CheckpointMeta{}, fmt.Errorf("prdrb: checkpoint has no meta section")
	}
	d := ckpt.NewDec(payload)
	m := CheckpointMeta{
		Digest:  d.U64(),
		At:      sim.Time(d.I64()),
		Quantum: sim.Time(d.I64()),
		Shards:  int(d.I64()),
	}
	if err := d.Err(); err != nil {
		return CheckpointMeta{}, err
	}
	return m, nil
}

// VerifyCheckpoint re-captures the simulation's state and compares it
// section by section against the file bytes. An error names the first
// differing section — the replay did not reconstruct the captured state
// (wrong flags, different binary, or a determinism bug).
func (s *Sim) VerifyCheckpoint(data []byte) error {
	want, err := ckpt.Read(data)
	if err != nil {
		return err
	}
	gotFile, err := s.CaptureCheckpoint()
	if err != nil {
		return err
	}
	got := map[uint16][]byte{}
	for _, sec := range gotFile.Sections {
		got[sec.ID] = sec.Payload
	}
	if len(want.Sections) != len(gotFile.Sections) {
		return fmt.Errorf("prdrb: checkpoint has %d sections, replay produced %d",
			len(want.Sections), len(gotFile.Sections))
	}
	for _, sec := range want.Sections {
		g, ok := got[sec.ID]
		if !ok {
			return fmt.Errorf("prdrb: replay produced no %s section", ckpt.SectionName(sec.ID))
		}
		if !bytes.Equal(sec.Payload, g) {
			return fmt.Errorf("prdrb: %s section diverged after replay (%d vs %d bytes) — state mismatch",
				ckpt.SectionName(sec.ID), len(sec.Payload), len(g))
		}
	}
	return nil
}

// Resume replays the simulation to the checkpoint in the file at path and
// verifies byte equivalence with the captured state. The simulation must
// be freshly built with the exact configuration (flags, seed, workloads)
// of the run that wrote the checkpoint; a configuration digest mismatch
// is refused before any replay work. On success the simulation stands at
// the checkpoint time, ready for Execute calls to continue the run.
func (s *Sim) Resume(path string) (CheckpointMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointMeta{}, err
	}
	m, err := ReadCheckpointMeta(data)
	if err != nil {
		return CheckpointMeta{}, err
	}
	if d := s.ConfigDigest(); d != m.Digest {
		return m, fmt.Errorf("prdrb: checkpoint config digest %016x does not match this run's %016x — resume needs the identical configuration", m.Digest, d)
	}
	if m.Shards != s.Exp.Shards {
		return m, fmt.Errorf("prdrb: checkpoint ran %d shards, this run has %d", m.Shards, s.Exp.Shards)
	}
	if q := s.CheckpointQuantum(); m.At%q != 0 {
		return m, fmt.Errorf("prdrb: checkpoint time %v is off this run's %v grid", m.At, q)
	}
	s.Execute(m.At)
	if err := s.VerifyCheckpoint(data); err != nil {
		return m, err
	}
	return m, nil
}
