package extsort

import (
	"errors"
	"fmt"
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
//
// Each input also runs StreamCols against SortCols (see checkStream), with
// and without the abort abortRaw picks.
func FuzzSortOracle(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 9, 0}, uint8(4), uint8(1), false, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(3), uint8(0), true, uint8(2), uint8(1), uint8(5))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(0), uint8(2), true, uint8(3), uint8(8), uint8(9))
	f.Add([]byte("a longer input of repeated bytes, long enough to fill several runs"),
		uint8(7), uint8(3), false, uint8(5), uint8(2), uint8(30))
	f.Add([]byte("several merge passes: M = 3B, so the fan-in is two and three runs need a pass first"),
		uint8(0), uint8(1), false, uint8(1), uint8(0), uint8(203))
	f.Fuzz(func(t *testing.T, data []byte, mRaw, bRaw uint8, dedup bool, keyRaw, scaleRaw, abortRaw uint8) {
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

		checkStream(t, m, b, rows, key, 0, 0)
		if abort := int(abortRaw % 4); abort != 0 {
			checkStream(t, m, b, rows, key, abort, int64(abortRaw/4))
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

// sortOutcome is what one sort leaves observable: its rows, its charges, the
// memory in use before and after it, and how it aborted.
type sortOutcome struct {
	rows        []tuple.Tuple
	stats       extmem.Stats
	memBefore   int
	memAfter    int
	pruned      bool
	abortedWith string
}

// runSort sorts rows by key on a fresh M, B disk, through StreamCols (its rows
// drained and copied) or SortCols, under the given abort: 0 none, 1 a charge
// budget of at, 2 a model PermanentAt at, 3 a model CancelAt at.
func runSort(t *testing.T, m, b int, rows []tuple.Tuple, key []int, stream bool, abort int, at int64) sortOutcome {
	d := extmem.NewDisk(extmem.Config{M: m, B: b})
	file := fill(d, 3, rows)
	d.ResetStats()
	switch abort {
	case 1:
		d.SetChargeBudget(at)
	case 2:
		d.SetFaultPlan(&extmem.FaultPlan{PermanentAt: at})
	case 3:
		d.SetFaultPlan(&extmem.FaultPlan{CancelAt: at})
	}
	out := sortOutcome{memBefore: d.MemInUse()}
	pruned, err := d.CatchAbort(func() error {
		if !stream {
			sorted, err := SortCols(file, key)
			if err == nil {
				out.rows = drainSuspended(sorted)
			}
			return err
		}
		st, err := StreamCols(file, key)
		if err != nil {
			return err
		}
		defer st.Close()
		for row := st.Next(); row != nil; row = st.Next() {
			out.rows = append(out.rows, tuple.Clone(row))
		}
		return nil
	})
	var fe *extmem.FaultError
	switch {
	case errors.As(err, &fe):
		out.abortedWith = fmt.Sprintf("fault at I/O %d in phase %q", fe.Index, fe.Phase)
	case errors.Is(err, extmem.ErrCancelled):
		out.abortedWith = "cancelled"
	case err != nil:
		t.Fatal(err)
	}
	out.stats, out.pruned, out.memAfter = d.Stats(), pruned, d.MemInUse()
	return out
}

// drainSuspended reads f back without charging it.
func drainSuspended(f *extmem.File) []tuple.Tuple {
	defer f.Disk().Suspend()()
	return drain(f)
}

// checkStream holds StreamCols to SortCols on the same input: the same rows
// in the same order, the same charges less the ⌈n/B⌉ writes of the sorted
// file, a memory peak no higher, and memory in use back where it started.
// With an abort armed at an I/O number both sorts reach, both must stop
// there the same way.
func checkStream(t *testing.T, m, b int, rows []tuple.Tuple, key []int, abort int, at int64) {
	full := runSort(t, m, b, rows, key, false, 0, 0)
	total := full.stats.IOs() - int64((len(rows)+b-1)/b)
	if abort != 0 {
		if total == 0 {
			return
		}
		at = 1 + at%total
	}
	ref := runSort(t, m, b, rows, key, false, abort, at)
	got := runSort(t, m, b, rows, key, true, abort, at)
	if got.memAfter != got.memBefore || ref.memAfter != ref.memBefore {
		t.Fatalf("abort %d at %d: memory in use %d -> %d streamed, %d -> %d written", abort, at,
			got.memBefore, got.memAfter, ref.memBefore, ref.memAfter)
	}
	if got.stats.MemHiWater > ref.stats.MemHiWater {
		t.Fatalf("abort %d at %d: streamed peak %d above SortCols's %d", abort, at, got.stats.MemHiWater, ref.stats.MemHiWater)
	}
	if abort != 0 {
		if got.pruned != ref.pruned || got.abortedWith != ref.abortedWith || got.stats.IOs() != ref.stats.IOs() ||
			(!got.pruned && got.abortedWith == "") {
			t.Fatalf("abort %d at %d: streamed pruned=%v %q after %d I/Os, SortCols pruned=%v %q after %d",
				abort, at, got.pruned, got.abortedWith, got.stats.IOs(), ref.pruned, ref.abortedWith, ref.stats.IOs())
		}
		return
	}
	want := ref.stats
	want.Writes -= int64((len(rows) + b - 1) / b)
	if got.stats.Reads != want.Reads || got.stats.Writes != want.Writes {
		t.Fatalf("streamed sort charged %+v, want %+v (SortCols %+v less the sorted file's writes)", got.stats, want, ref.stats)
	}
	if len(got.rows) != len(ref.rows) {
		t.Fatalf("streamed %d rows, SortCols %d", len(got.rows), len(ref.rows))
	}
	for i := range ref.rows {
		if tuple.CompareFull(got.rows[i], ref.rows[i]) != 0 {
			t.Fatalf("streamed row %d = %v, SortCols %v", i, got.rows[i], ref.rows[i])
		}
	}
}
