package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var meta, seal Enc
	meta.U64(0xdeadbeef)
	meta.I64(-42)
	meta.Str("pr-drb")
	seal.Int(1)
	seal.Str("engine")
	seal.U64(7)

	f := &File{Version: Version, Sections: []Section{
		{ID: SecMeta, Payload: meta.Bytes()},
		{ID: SecSeal, Payload: seal.Bytes()},
	}}
	data := Encode(f)

	got, err := Read(data)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Version != Version || len(got.Sections) != 2 {
		t.Fatalf("got version %d, %d sections", got.Version, len(got.Sections))
	}
	p, ok := got.Section(SecMeta)
	if !ok || !bytes.Equal(p, meta.Bytes()) {
		t.Fatalf("meta section mismatch")
	}
	d := NewDec(p)
	if d.U64() != 0xdeadbeef || d.I64() != -42 || d.Str() != "pr-drb" {
		t.Fatalf("meta decode mismatch")
	}
	if d.Err() != nil || d.U32() != 0 || d.Err() == nil {
		t.Fatalf("meta decode left bytes over or err=%v", d.Err())
	}
	p, _ = got.Section(SecSeal)
	d = NewDec(p)
	if d.I64() != 1 || d.Str() != "engine" || d.U64() != 7 {
		t.Fatalf("seal decode mismatch")
	}
	if _, ok := got.Section(2); ok {
		t.Fatalf("found a section that was never written")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	good := Encode(&File{Version: Version, Sections: []Section{
		{ID: SecMeta, Payload: []byte("hello")},
	}})

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"short header", []byte("PRDRB"), "too short"},
		{"bad magic", append([]byte("NOTACKPT"), good[8:]...), "bad magic"},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[8] = 99
			return b
		}(), "unsupported format version"},
		{"count overflow", func() []byte {
			b := append([]byte(nil), good...)
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		}(), "section count"},
		{"truncated payload", good[:len(good)-2], "truncated section"},
		{"length overflow", func() []byte {
			b := append([]byte(nil), good...)
			// Section length field sits right after the 2-byte id.
			b[headerLen+2] = 0xff
			b[headerLen+3] = 0xff
			b[headerLen+4] = 0xff
			b[headerLen+5] = 0x7f
			return b
		}(), "exceeds limit"},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAB), "trailing bytes"},
	}
	for _, tc := range cases {
		_, err := Read(tc.data)
		if err == nil {
			t.Errorf("%s: Read accepted malformed input", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecTruncation(t *testing.T) {
	var e Enc
	e.U32(3)
	d := NewDec(e.Bytes())
	if d.U64() != 0 || d.Err() == nil {
		t.Fatalf("short U64 read did not error")
	}
	// Sticky error: later reads keep returning zero values.
	if d.U32() != 0 || d.Str() != "" || d.Err() == nil {
		t.Fatalf("error was not sticky")
	}

	// A string length prefix larger than the remaining bytes must error,
	// not allocate.
	var s Enc
	s.U32(1 << 30)
	d = NewDec(s.Bytes())
	if d.Str() != "" || d.Err() == nil {
		t.Fatalf("oversized string prefix accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	data := Encode(&File{Version: Version, Sections: []Section{{ID: SecMeta, Payload: []byte("x")}}})
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("readback mismatch: %v", err)
	}
	// Overwrite with new content: readers must never see a torn file.
	data2 := Encode(&File{Version: Version, Sections: []Section{{ID: SecSeal, Payload: []byte("yz")}}})
	if err := WriteFileAtomic(path, data2); err != nil {
		t.Fatalf("WriteFileAtomic overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, data2) {
		t.Fatalf("overwrite readback mismatch")
	}
	// No stray temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestDigestStrings(t *testing.T) {
	a := DigestStrings("ab", "c")
	b := DigestStrings("a", "bc")
	if a == b {
		t.Fatalf("part boundaries did not affect digest")
	}
	if DigestStrings("x") != DigestStrings("x") {
		t.Fatalf("digest not deterministic")
	}
}
