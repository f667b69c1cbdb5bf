package extsort

import (
	"math"
	"sort"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/tuple"
)

// fuzzKeys are the column orders FuzzSortOracle picks from: one to three
// columns of its arity-3 rows, in and out of position order.
var fuzzKeys = [][]int{{0}, {1}, {0, 1}, {1, 0}, {0, 2}, {1, 0, 2}}

// fuzzScales are the spacings between distinct values of a column. The
// largest puts values next to math.MinInt64 and math.MaxInt64, so the range
// of a load does not fit beside the row index in a packed key and run
// formation falls back to the merge sort.
var fuzzScales = []int64{1, 1 << 40, math.MaxInt64 / 8}

// FuzzSortOracle checks the external sort against an in-memory
// sort.SliceStable oracle on arbitrary inputs, machine shapes, column orders
// and value ranges, with the operator memo on and off: the output must equal
// the oracle's (stable order, dedup keeping the first of each equal group),
// and every simulated counter must be identical between the memoized and
// direct runs — including the second, memo-hitting sort.
func FuzzSortOracle(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 9, 0}, uint8(4), uint8(1), false, uint8(0), uint8(0))
	f.Add([]byte{}, uint8(3), uint8(0), true, uint8(2), uint8(1))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(0), uint8(2), true, uint8(3), uint8(8))
	f.Add([]byte("a longer input of repeated bytes, long enough to fill several runs"),
		uint8(7), uint8(3), false, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mRaw, bRaw uint8, dedup bool, keyRaw, scaleRaw uint8) {
		b := int(bRaw)%8 + 1
		m := b * (int(mRaw)%8 + 3) // valid fan-in needs M >= 3B
		if len(data) > 512 {
			data = data[:512]
		}
		key := fuzzKeys[int(keyRaw)%len(fuzzKeys)]
		s0 := fuzzScales[int(scaleRaw)%len(fuzzScales)]
		s1 := fuzzScales[int(scaleRaw)/len(fuzzScales)%len(fuzzScales)]
		// Columns 0 and 1 come from the fuzz bytes, 16 values each centred
		// on zero; column 2 is a distinct sequence number that makes
		// stability observable whenever the key leaves it out.
		rows := make([]tuple.Tuple, len(data))
		for i, v := range data {
			rows[i] = tuple.Tuple{(int64(v%16) - 8) * s0, (int64(v/16) - 8) * s1, int64(i)}
		}

		run := func(cached bool) (extmem.Stats, []tuple.Tuple, []tuple.Tuple) {
			d := extmem.NewDisk(extmem.Config{M: m, B: b})
			if cached {
				opcache.Enable(d)
			}
			file := fill(d, 3, rows)
			d.ResetStats()
			sortOnce := func() []tuple.Tuple {
				var out *extmem.File
				var err error
				if dedup {
					out, err = SortDedupCols(file, key)
				} else {
					out, err = SortCols(file, key)
				}
				if err != nil {
					t.Fatal(err)
				}
				return drain(out)
			}
			first := sortOnce()
			second := sortOnce() // hits when cached
			return d.Stats(), first, second
		}

		stOn, firstOn, secondOn := run(true)
		stOff, firstOff, secondOff := run(false)
		if stOn != stOff {
			t.Fatalf("stats diverge: cached %+v, uncached %+v", stOn, stOff)
		}

		// Oracle: stable sort on the key columns; dedup keeps the first.
		oracle := make([]tuple.Tuple, len(rows))
		copy(oracle, rows)
		sort.SliceStable(oracle, func(i, j int) bool { return tuple.Compare(oracle[i], oracle[j], key) < 0 })
		if dedup {
			kept := oracle[:0]
			for i, r := range oracle {
				if i == 0 || tuple.Compare(r, kept[len(kept)-1], key) != 0 {
					kept = append(kept, r)
				}
			}
			oracle = kept
		}

		for name, got := range map[string][]tuple.Tuple{
			"cached first": firstOn, "cached second": secondOn,
			"uncached first": firstOff, "uncached second": secondOff,
		} {
			if len(got) != len(oracle) {
				t.Fatalf("%s: %d tuples, oracle %d", name, len(got), len(oracle))
			}
			for i := range oracle {
				if tuple.CompareFull(got[i], oracle[i]) != 0 {
					t.Fatalf("%s: row %d = %v, oracle %v", name, i, got[i], oracle[i])
				}
			}
		}
	})
}
