package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestDeadAPICatchesPlanted plants, in a copy of the tree, an unused
// exported function, an unused method, a method only a _test.go file calls
// and an io.Writer that only fmt.Fprintf's implicit conversion reaches:
// the row names the first three, and nothing else.
func TestDeadAPICatchesPlanted(t *testing.T) {
	if raceBuild {
		t.Skip("the test group runs it without -race")
	}
	dir := t.TempDir()
	copyTree(t, must(filepath.Abs("../../..")), dir)
	writeFile(t, filepath.Join(dir, "internal/stats/planted.go"), `package stats

import "fmt"

func Planted() {}

type Gauge struct{ n int }

func (g *Gauge) Unused() int   { return g.n }
func (g *Gauge) TestOnly() int { return g.n }

func (g *Gauge) Write(p []byte) (int, error) {
	g.n += len(p)
	return len(p), nil
}

var _ = func(g *Gauge) { fmt.Fprintf(g, "%d", 1) }
`)
	writeFile(t, filepath.Join(dir, "internal/stats/planted_test.go"), `package stats

import "testing"

func TestPlanted(t *testing.T) { _ = (&Gauge{}).TestOnly() }
`)
	want := []string{"prdrb/internal/stats.Gauge.TestOnly", "prdrb/internal/stats.Gauge.Unused", "prdrb/internal/stats.Planted"}
	if got := unkept(deadAPI(dir)); !slices.Equal(got, want) {
		t.Fatalf("dead-api named %q, want %q", got, want)
	}
}
