package extsort

import (
	"math"
	"math/rand"
	"testing"
)

// TestParallelStableSortRowsMatchesSequential checks that the packed-key run
// sort (colOrder.sortRun) yields exactly the permutation of the bottom-up
// merge sort, the reference stable sort, on loads as large as a 4,096-tuple
// memory holds. Few distinct keys make ties everywhere, so any stability
// break shows: a stable sort's output permutation is unique, so []int32
// equality is the whole contract. Full and partial column lists, and key
// ranges that do and do not fit beside the row index, cover the packed path,
// the tie-group recursion and the merge-sort fallback.
func TestParallelStableSortRowsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// scales gives each column's spacing between distinct keys: a wide
	// column's range does not fit beside the index.
	const wide = math.MaxInt64 / 13
	scales := map[string][3]int64{"narrow": {1, 1, 1}, "wide": {wide, wide, wide}, "mixed": {1, wide, 1}}
	for _, n := range []int{2048, 2049, 3*2048 + 17} {
		for _, w := range []int{1, 3} {
			for name, scale := range scales {
				buf := make([]int64, n*w)
				for i := range buf {
					buf[i] = (int64(rng.Intn(13)) - 6) * scale[i%w] // few distinct keys
				}
				orders := [][]int{{0}}
				if w == 3 {
					orders = append(orders, []int{0, 1, 2}, []int{2, 0}, []int{1}, []int{0, 2})
				}
				for _, cols := range orders {
					want := identity(n)
					aux := make([]int32, n)
					sequentialStableSortRows(want, aux, buf, w, colOrder{cols})
					got := identity(n)
					colOrder{cols}.sortRun(got, aux, make([]uint64, n), buf, w)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("n=%d w=%d %s cols=%v: permutation diverges at %d: merge sort %d, packed %d",
								n, w, name, cols, i, want[i], got[i])
						}
					}
				}
			}
		}
	}
}

func identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}
