package ckpt

import (
	"bytes"
	"testing"
)

// FuzzReadCheckpoint drives the container parser with arbitrary bytes:
// truncated headers, corrupt section frames, hostile length fields. The
// invariants are (1) Read never panics, (2) anything Read accepts
// re-encodes to the identical byte string (parse/print fixpoint), and
// (3) every accepted section survives a full Dec sweep without panicking.
// Files of other versions — the committed corpus holds version 1 and 2
// shapes — must be refused.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed corpus: a well-formed file, ragged truncations of it, and a
	// few targeted corruptions. Committed seeds under testdata/fuzz add
	// the historically interesting shapes.
	var meta, seal Enc
	meta.U64(0x1234)
	meta.I64(5000)
	meta.Str("meta")
	seal.Int(1)
	seal.Str("engine")
	seal.U64(42)
	good := Encode(&File{Version: Version, Sections: []Section{
		{ID: SecMeta, Payload: meta.Bytes()},
		{ID: SecSeal, Payload: seal.Bytes()},
	}})
	f.Add(good)
	for _, n := range []int{0, 7, 8, 12, 15, 16, 20, len(good) - 1} {
		if n >= 0 && n < len(good) {
			f.Add(good[:n])
		}
	}
	bad := append([]byte(nil), good...)
	bad[8] = 0xFE // version
	f.Add(bad)
	huge := append([]byte(nil), good...)
	huge[headerLen+2] = 0xFF // section length low byte
	huge[headerLen+5] = 0xFF // section length high byte
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Read(data)
		if err != nil {
			return
		}
		if parsed.Version != Version {
			t.Fatalf("accepted a version %d file", parsed.Version)
		}
		if re := Encode(parsed); !bytes.Equal(re, data) {
			t.Fatalf("re-encode of accepted input differs: %d bytes in, %d out", len(data), len(re))
		}
		for _, s := range parsed.Sections {
			d := NewDec(s.Payload)
			// Drain the payload through every accessor shape; each pass
			// consumes bytes or sets the sticky error, so this terminates.
			for d.Err() == nil {
				d.U32()
				d.U64()
				d.Str()
			}
		}
	})
}
