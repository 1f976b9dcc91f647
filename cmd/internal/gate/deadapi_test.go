package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestDeadAPICatchesPlanted plants, in a copy of the tree, an unused
// exported function, an unused method, a method only a _test.go file
// calls, a field never written, a field never read and a field only a
// _test.go file sets: the row names those six. It also plants an io.Writer
// that only fmt.Fprintf's implicit conversion reaches, a field read only
// through %+v and one written only by json.Unmarshal, which it does not.
func TestDeadAPICatchesPlanted(t *testing.T) {
	if raceBuild {
		t.Skip("the test group runs it without -race")
	}
	dir := t.TempDir()
	copyTree(t, must(filepath.Abs("../../..")), dir)
	writeFile(t, filepath.Join(dir, "internal/stats/planted.go"), `package stats

import (
	"encoding/json"
	"fmt"
)

func Planted() {}

type Gauge struct{ n, neverWritten, neverRead, testSet int }

func (g *Gauge) Unused() int   { return g.n }
func (g *Gauge) TestOnly() int { return g.n }

func (g *Gauge) Write(p []byte) (int, error) {
	g.n += len(p)
	g.neverRead = g.neverWritten + g.testSet
	return len(p), nil
}

var _ = func(g *Gauge) { fmt.Fprintf(g, "%d", 1) }

type Printed struct{ V int }

var _ = fmt.Sprintf("%+v", Printed{V: 1})

type Decoded struct{ V int }

func decode(b []byte) int {
	var d Decoded
	_ = json.Unmarshal(b, &d)
	return d.V
}

var _ = decode
`)
	writeFile(t, filepath.Join(dir, "internal/stats/planted_test.go"), `package stats

import "testing"

func TestPlanted(t *testing.T) { _ = (&Gauge{testSet: 1}).TestOnly() }
`)
	want := []string{"prdrb/internal/stats.Gauge.TestOnly", "prdrb/internal/stats.Gauge.Unused", "prdrb/internal/stats.Gauge.neverRead",
		"prdrb/internal/stats.Gauge.neverWritten", "prdrb/internal/stats.Gauge.testSet", "prdrb/internal/stats.Planted"}
	if got := unkept(deadAPI(dir)); !slices.Equal(got, want) {
		t.Fatalf("dead-api named %q, want %q", got, want)
	}
}
