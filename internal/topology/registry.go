package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// ByName constructs a topology from a compact spec string — the single
// registry every CLI, preset and manifest-replaying tool resolves shapes
// through:
//
//	mesh-WxH        2-D mesh                      mesh-8x8
//	torus-WxH       2-D torus                     torus-4x4
//	mesh3d-XxYxZ    3-D mesh                      mesh3d-4x4x4
//	torus3d-XxYxZ   3-D torus (k-ary 3-cube)      torus3d-4x4x4
//	ft-K-N          k-ary n-tree fat-tree         ft-4-3
//	clos-K          3-tier full-bisection folded  clos-16 (512 hosts),
//	                Clos of radix-K switches      clos-32 (4096 hosts)
//	df-A-G-H-P      Dragonfly: G groups of A      df-16-32-8-8
//	                routers, H global links and   (4096 hosts)
//	                P terminals per router
//
// A clos-K is the K/2-ary 3-tree: radix-K switches (K/2 down, K/2 up),
// (K/2)^3 hosts, full bisection — the standard three-tier datacenter
// folded-Clos stated in switch-radix terms.
//
// Specs come from flags and manifests, so every bad one is an error, never
// a constructor panic, and shapes past maxSize routers or terminals are
// refused before anything is allocated.
func ByName(spec string) (Topology, error) {
	kind, rest, _ := strings.Cut(spec, "-")
	// params parses want sep-separated integers. None may exceed maxSize,
	// so the size products below cannot overflow.
	params := func(sep string, want int) ([]int, error) {
		parts := strings.Split(rest, sep)
		if len(parts) != want {
			return nil, fmt.Errorf("topology: %q wants %d parameters separated by %q", spec, want, sep)
		}
		out := make([]int, want)
		for i, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil || v > maxSize {
				return nil, fmt.Errorf("topology: parameter %q in %q is not an integer <= %d", p, spec, maxSize)
			}
			out[i] = v
		}
		return out, nil
	}
	// tree builds a k-ary n-tree: k^n terminals under n*k^(n-1) switches.
	tree := func(k, n int) (Topology, error) {
		if err := checkTree(k, n); err != nil {
			return nil, err
		}
		perLevel := 1
		for i := 1; i < n && perLevel <= maxSize; i++ {
			perLevel *= k
		}
		if err := checkSize(spec, product(perLevel, n), product(perLevel, k)); err != nil {
			return nil, err
		}
		return NewKAryNTree(k, n), nil
	}
	switch kind {
	case "mesh", "torus", "mesh3d", "torus3d":
		n, wrap := 2, strings.HasPrefix(kind, "torus")
		if strings.HasSuffix(kind, "3d") {
			n = 3
		}
		d, err := params("x", n)
		if err == nil {
			err = checkGrid(d, wrap)
		}
		if err == nil {
			err = checkSize(spec, product(d...))
		}
		if err != nil {
			return nil, err
		}
		return NewGrid(d, wrap), nil
	case "ft":
		v, err := params("-", 2)
		if err != nil {
			return nil, err
		}
		return tree(v[0], v[1])
	case "clos":
		v, err := params("-", 1)
		if err != nil {
			return nil, err
		}
		if v[0] < 4 || v[0]%2 != 0 {
			return nil, fmt.Errorf("topology: clos switch radix must be even and >= 4, got %d", v[0])
		}
		return tree(v[0]/2, 3)
	case "df":
		v, err := params("-", 4)
		if err == nil {
			err = checkDragonfly(v[0], v[1], v[2], v[3])
		}
		if err == nil { // terminals, and the global channels the wiring tables hold
			err = checkSize(spec, product(v[0], v[1], v[3]), product(v[0], v[1], v[2]))
		}
		if err != nil {
			return nil, err
		}
		return NewDragonfly(v[0], v[1], v[2], v[3]), nil
	}
	return nil, fmt.Errorf("topology: unknown spec %q (want %s)", spec, strings.Join(SpecForms(), ", "))
}

// maxSize caps the routers, terminals and dragonfly global channels a spec
// may ask for. Construction is linear in those counts, so an absurd spec
// from a flag or manifest must fail here rather than exhaust memory.
const maxSize = 1 << 20

// product multiplies positive factors of at most maxSize each, saturating
// just past maxSize so no step overflows.
func product(factors ...int) int {
	n := 1
	for _, f := range factors {
		if n *= f; n > maxSize {
			return maxSize + 1
		}
	}
	return n
}

// checkSize rejects a spec any of whose element counts exceeds maxSize.
func checkSize(spec string, counts ...int) error {
	for _, c := range counts {
		if c > maxSize {
			return fmt.Errorf("topology: %q exceeds the size cap of %d routers or terminals", spec, maxSize)
		}
	}
	return nil
}

// SpecForms lists the spec grammars ByName accepts, for CLI usage lines.
func SpecForms() []string {
	return []string{"mesh-WxH", "torus-WxH", "mesh3d-XxYxZ", "torus3d-XxYxZ", "ft-K-N", "clos-K", "df-A-G-H-P"}
}
