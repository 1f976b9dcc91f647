package topology

import "testing"

// digitLoop and setDigitLoop are the division-loop definitions the pow
// table replaced; the table versions must agree with them everywhere.
func digitLoop(k, w, i int) int {
	for ; i > 0; i-- {
		w /= k
	}
	return w % k
}

func setDigitLoop(k, w, i, v int) int {
	pow := 1
	for j := 0; j < i; j++ {
		pow *= k
	}
	return w + (v-(w/pow)%k)*pow
}

// isAncestorLoop is the digit-by-digit definition IsAncestor replaced: r
// (level l, word w) is an ancestor of dst when digits l..n-2 of w match
// dst's leaf word.
func isAncestorLoop(k, n, l, w, dst int) bool {
	for i := n - 2; i >= l; i-- {
		if digitLoop(k, w, i) != digitLoop(k, dst/k, i) {
			return false
		}
	}
	return true
}

// TestTreeDigitTable pins the pow-table digit/setDigit against the loop
// versions for every (word, digit position, value), and IsAncestor for
// every (router, destination): routing decisions on k-ary n-trees must
// stay bit-identical. Destinations run past NumTerminals on purpose: the
// loop ignored the digits above n-2 (a pattern space wider than the tree
// still routed, every root being an ancestor), and so must the table.
func TestTreeDigitTable(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for _, n := range []int{2, 3, 4} {
			tr := NewKAryNTree(k, n)
			for r := 0; r < tr.NumRouters(); r++ {
				rid := RouterID(r)
				for d := 0; d < 4*tr.NumTerminals(); d++ {
					if got, want := tr.IsAncestor(rid, NodeID(d)), isAncestorLoop(k, n, tr.Level(rid), tr.Word(rid), d); got != want {
						t.Fatalf("k=%d n=%d: IsAncestor(%s, %d) = %v, want %v", k, n, tr.RouterLabel(rid), d, got, want)
					}
				}
			}
			for w := 0; w < tr.NumTerminals(); w++ {
				for i := 0; i < n; i++ {
					if got, want := tr.digit(w, i), digitLoop(k, w, i); got != want {
						t.Fatalf("k=%d n=%d: digit(%d, %d) = %d, want %d", k, n, w, i, got, want)
					}
					for v := 0; v < k; v++ {
						if got, want := tr.setDigit(w, i, v), setDigitLoop(k, w, i, v); got != want {
							t.Fatalf("k=%d n=%d: setDigit(%d, %d, %d) = %d, want %d", k, n, w, i, v, got, want)
						}
					}
				}
			}
		}
	}
}
