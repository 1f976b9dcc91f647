// Package ckpt defines the versioned binary checkpoint container: a
// run's identity and its determinism seal (see internal/runner). A
// checkpoint file is:
//
//	magic   [8]byte  "PRDRBCP1"
//	version uint32   little-endian format version
//	count   uint32   number of sections
//	sections, each:
//	  id      uint16 section identifier (Sec* constants)
//	  length  uint32 payload byte count
//	  payload [length]byte
//
// All integers are fixed-width little-endian, so two captures of the same
// simulation state are the same file.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint file (8 bytes, includes format generation).
const Magic = "PRDRBCP1"

// Version is the current format version. Readers reject other versions:
// a seal's meaning is pinned to the code that computed it (see DESIGN.md
// for the compatibility policy). Version 3: the nine state sections of
// versions 1-2 became one seal section of named component hashes.
// Version 4: pattern and burst traffic keep one pending opener per engine
// instead of one first event per source, which the engine component hashes.
const Version uint32 = 4

// Section identifiers. New sections append; ids are never reused (2-9
// held the full-state sections of versions 1-2).
const (
	SecMeta uint16 = 1  // run identity: config digest, time, quantum, shards
	SecSeal uint16 = 10 // named 64-bit hashes of the state at the capture
)

// SectionName names a section id for diagnostics.
func SectionName(id uint16) string {
	switch id {
	case SecMeta:
		return "meta"
	case SecSeal:
		return "seal"
	}
	return fmt.Sprintf("sec#%d", id)
}

// maxSectionLen bounds a single section payload (1 GiB). Real checkpoints
// are under a kilobyte; the bound keeps a corrupted length field from
// driving a giant allocation in the reader.
const maxSectionLen = 1 << 30

// headerLen is magic + version + section count.
const headerLen = 8 + 4 + 4

// Enc is an append-only little-endian encoder for section payloads.
type Enc struct{ b []byte }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Str appends a uint32 length prefix followed by the raw bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Dec is a bounds-checked little-endian reader over a section payload.
// Errors are sticky: after the first short read every accessor returns
// zero and Err reports the failure.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.err = fmt.Errorf("ckpt: truncated payload (need %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string. The length is bounds-checked
// against the remaining payload, so a corrupted prefix cannot drive a
// huge allocation.
func (d *Dec) Str() string {
	n := int(d.U32())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Section is one length-prefixed section of a checkpoint file.
type Section struct {
	ID      uint16
	Payload []byte
}

// File is a parsed checkpoint container.
type File struct {
	Version  uint32
	Sections []Section
}

// Section returns the payload of the first section with the given id.
func (f *File) Section(id uint16) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.ID == id {
			return s.Payload, true
		}
	}
	return nil, false
}

// Encode serializes the file: header followed by every section in order.
func Encode(f *File) []byte {
	size := headerLen
	for _, s := range f.Sections {
		size += 6 + len(s.Payload)
	}
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, f.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Sections)))
	for _, s := range f.Sections {
		out = binary.LittleEndian.AppendUint16(out, s.ID)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Payload)))
		out = append(out, s.Payload...)
	}
	return out
}

// Read parses a checkpoint container, validating the magic, version and
// every section frame against the data actually present. Section payloads
// alias data (no copy). Read never panics on malformed input — truncated
// headers, bad lengths and overflowing counts all return errors (this is
// the fuzzed surface).
func Read(data []byte) (*File, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("ckpt: file too short (%d bytes, header needs %d)", len(data), headerLen)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q (not a checkpoint file)", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != Version {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (this build reads version %d)", version, Version)
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	// Each section frame is at least 6 bytes, so the count is bounded by
	// the bytes present — reject early rather than allocating on a lie.
	rest := data[headerLen:]
	if uint64(count) > uint64(len(rest))/6 {
		return nil, fmt.Errorf("ckpt: section count %d exceeds file size", count)
	}
	f := &File{Version: version, Sections: make([]Section, 0, count)}
	off := 0
	for i := uint32(0); i < count; i++ {
		if len(rest)-off < 6 {
			return nil, fmt.Errorf("ckpt: truncated section header (section %d of %d)", i, count)
		}
		id := binary.LittleEndian.Uint16(rest[off:])
		ln := binary.LittleEndian.Uint32(rest[off+2:])
		off += 6
		if ln > maxSectionLen {
			return nil, fmt.Errorf("ckpt: section %s length %d exceeds limit", SectionName(id), ln)
		}
		if uint64(len(rest)-off) < uint64(ln) {
			return nil, fmt.Errorf("ckpt: truncated section %s (want %d bytes, have %d)",
				SectionName(id), ln, len(rest)-off)
		}
		f.Sections = append(f.Sections, Section{ID: id, Payload: rest[off : off+int(ln)]})
		off += int(ln)
	}
	if off != len(rest) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after last section", len(rest)-off)
	}
	return f, nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory plus rename, so a crash mid-write never leaves a torn
// checkpoint: readers see either the old file or the new one.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// DigestStrings hashes the parts with FNV-1a 64, separating parts with a
// NUL so concatenation ambiguity cannot collide two configurations. Used
// for the run-configuration digest stored in SecMeta and for campaign
// manifest keys.
func DigestStrings(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
