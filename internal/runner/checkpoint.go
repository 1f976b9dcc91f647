package runner

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"

	"prdrb/internal/ckpt"
	"prdrb/internal/sim"
)

// Checkpoint/resume as a determinism seal.
//
// A run is a pure function of its configuration and seed, so a resume never
// loads state. It rebuilds the simulation from the identical configuration,
// replays to the checkpoint time, and proves it arrived where the writer
// stood by recomputing the seal — a few named 64-bit FNV hashes over
// read-only accessors — and comparing it with the file's. A mismatch
// (different binary, different flags, a determinism bug) fails the resume
// and names the first component that differs; a match means the resumed
// process continues exactly as an uninterrupted run does.
//
// Captures happen at quiescent points only: the Execute horizon when
// serial, a window barrier with drained rings when sharded. Checkpoint
// times are therefore quantized to CheckpointQuantum.

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

// checkpointMeta is the identity of a capture taken now. The capture time
// is the Execute horizon, not Now(): a serial engine parks at its last
// processed event, and replaying to that event time would exclude the
// event itself (Run stops before at >= horizon).
func (s *Sim) checkpointMeta() CheckpointMeta {
	return CheckpointMeta{Digest: s.ConfigDigest(), At: s.executedTo, Quantum: s.CheckpointQuantum(), Shards: s.Exp.Shards}
}

// sealPart is one named component hash of the seal.
type sealPart struct {
	name string
	hash uint64
}

// sealHash feeds fixed-width words to a 64-bit FNV-1a hash.
type sealHash struct {
	hash.Hash64
	buf [8]byte
}

func newSealHash() *sealHash { return &sealHash{Hash64: fnv.New64a()} }

func (h *sealHash) words(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(h.buf[:], v)
		h.Write(h.buf[:])
	}
}

// seal hashes the quiescent state. The model comes before the scheduler:
// any divergence also moves the engine's counters, so a difference that
// reached the fabric or the results is named there, and "engine" alone
// means the event stream diverged without (yet) touching the model.
func (s *Sim) seal() []sealPart {
	net := newSealHash()
	for _, nic := range s.Net.NICs {
		net.words(uint64(nic.Delivered))
	}
	offered, delivered, dropped := s.Net.ThroughputTotals()
	down, degraded := s.Net.LinkHealthCounts()
	net.words(uint64(s.Net.InFlightPkts()), uint64(offered), uint64(delivered), uint64(dropped),
		uint64(down), uint64(degraded))
	for _, k := range s.Net.EventKinds() {
		net.words(k.Handoffs, k.RemoteCredits, k.LocalCredits, k.LinkFree)
	}

	// The benchmark's sim_digest rule: every Results field, which carries
	// latency, contention, controller statistics and recoveries.
	res := newSealHash()
	fmt.Fprintf(res, "%+v", s.Summarize())

	rng := newSealHash()
	st := s.rng.State()
	rng.words(st[:]...)

	eng := newSealHash()
	if g := s.Net.Group(); g != nil {
		eng.words(uint64(g.Now()))
	}
	for _, sh := range s.Net.Shards {
		e := sh.Eng
		eng.words(uint64(e.Now()), e.Seq(), e.Processed, uint64(e.Len()))
		for _, ev := range e.PendingEvents() {
			eng.words(uint64(ev.At), ev.Seq, uint64(ev.Kind), ev.Arg)
		}
	}
	return []sealPart{
		{"network", net.Sum64()},
		{"results", res.Sum64()},
		{"rng", rng.Sum64()},
		{"engine", eng.Sum64()},
	}
}

// CaptureCheckpoint seals the simulation's current state. The simulation
// must be quiescent: between Execute calls (serial), or at a window barrier
// with drained rings (sharded) — which Execute guarantees on return.
func (s *Sim) CaptureCheckpoint() (*ckpt.File, error) {
	if g := s.Net.Group(); g != nil && !g.Quiescent() {
		return nil, fmt.Errorf("prdrb: checkpoint requires a quiescent shard group (rings not drained)")
	}
	m := s.checkpointMeta()
	var meta, seal ckpt.Enc
	meta.U64(m.Digest)
	meta.I64(int64(m.At))
	meta.I64(int64(m.Quantum))
	meta.Int(m.Shards)
	parts := s.seal()
	seal.Int(len(parts))
	for _, p := range parts {
		seal.Str(p.name)
		seal.U64(p.hash)
	}
	return &ckpt.File{Version: ckpt.Version, Sections: []ckpt.Section{
		{ID: ckpt.SecMeta, Payload: meta.Bytes()},
		{ID: ckpt.SecSeal, Payload: seal.Bytes()},
	}}, nil
}

// readCheckpoint parses a checkpoint file into its identity header and its
// seal payload.
func readCheckpoint(data []byte) (CheckpointMeta, *ckpt.Dec, error) {
	f, err := ckpt.Read(data)
	if err != nil {
		return CheckpointMeta{}, nil, err
	}
	meta, okMeta := f.Section(ckpt.SecMeta)
	seal, okSeal := f.Section(ckpt.SecSeal)
	if !okMeta || !okSeal {
		return CheckpointMeta{}, nil, fmt.Errorf("prdrb: checkpoint lacks its meta or seal section")
	}
	d := ckpt.NewDec(meta)
	m := CheckpointMeta{
		Digest:  d.U64(),
		At:      sim.Time(d.I64()),
		Quantum: sim.Time(d.I64()),
		Shards:  int(d.I64()),
	}
	return m, ckpt.NewDec(seal), d.Err()
}

// VerifyCheckpoint recomputes the seal and compares it with the file's. An
// error names the first component that differs — the replay did not reach
// the captured state (wrong flags, different binary, or a determinism bug).
func (s *Sim) VerifyCheckpoint(data []byte) error {
	m, d, err := readCheckpoint(data)
	if err != nil {
		return err
	}
	if got := s.checkpointMeta(); got != m {
		return fmt.Errorf("prdrb: checkpoint identity %+v does not match this run's %+v", m, got)
	}
	n := d.I64()
	got := s.seal()
	if n != int64(len(got)) {
		return fmt.Errorf("prdrb: checkpoint seal has %d components, this build computes %d", n, len(got))
	}
	for _, g := range got {
		name, h := d.Str(), d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if name != g.name {
			return fmt.Errorf("prdrb: checkpoint seal has component %q where this build computes %q", name, g.name)
		}
		if h != g.hash {
			return fmt.Errorf("prdrb: checkpoint seal component %q diverged after replay (file %016x, replay %016x)", g.name, h, g.hash)
		}
	}
	return nil
}

// Resume replays the simulation to the checkpoint in the file at path and
// verifies its seal. The simulation must be freshly built with the exact
// configuration (flags, seed, workloads) of the run that wrote the
// checkpoint; a configuration digest mismatch is refused before any replay
// work. On success the simulation stands at the checkpoint time, ready for
// Execute calls to continue the run.
func (s *Sim) Resume(path string) (CheckpointMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointMeta{}, err
	}
	m, _, err := readCheckpoint(data)
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
