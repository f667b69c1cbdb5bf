package extsort

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

func fill(d *extmem.Disk, arity int, rows []tuple.Tuple) *extmem.File {
	f := d.NewFile(arity)
	w := f.NewWriter()
	for _, t := range rows {
		w.Append(t)
	}
	w.Close()
	return f
}

func drain(f *extmem.File) []tuple.Tuple {
	var out []tuple.Tuple
	r := f.NewReader()
	for t := r.Next(); t != nil; t = r.Next() {
		out = append(out, tuple.Clone(t))
	}
	return out
}

func TestSortSmall(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	rows := []tuple.Tuple{{3, 1}, {1, 2}, {2, 0}, {1, 1}, {0, 9}}
	f := fill(d, 2, rows)
	s, err := Sort(f, ByCols([]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	want := []tuple.Tuple{{0, 9}, {1, 1}, {1, 2}, {2, 0}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if tuple.CompareFull(got[i], want[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSortEmpty(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	f := d.NewFile(2)
	s, err := Sort(f, Full())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d, want 0", s.Len())
	}
}

func TestSortMultiPassLarge(t *testing.T) {
	// M=16, B=4 -> fanIn=3; 1000 tuples -> 63 runs -> multiple merge passes.
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	rng := rand.New(rand.NewSource(1))
	rows := make([]tuple.Tuple, 1000)
	for i := range rows {
		rows[i] = tuple.Tuple{int64(rng.Intn(200)), int64(rng.Intn(200))}
	}
	f := fill(d, 2, rows)
	d.ResetStats()
	s, err := Sort(f, ByCols([]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(s, ByCols([]int{0, 1})) {
		t.Fatal("output not sorted")
	}
	if s.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", s.Len())
	}
	// Sanity: multiset preserved.
	got := drain(s)
	sort.Slice(rows, func(i, j int) bool { return tuple.CompareFull(rows[i], rows[j]) < 0 })
	for i := range rows {
		if tuple.CompareFull(got[i], rows[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got[i], rows[i])
		}
	}
	if hw := d.Stats().MemHiWater; hw > 8*16 {
		t.Errorf("memory hi-water %d exceeds 8*M", hw)
	}
}

// TestSortHoldsWhatItLoads pins the sort's memory: run formation holds the
// tuples a load fills plus the output block, n+B for n < M tuples, M+B once
// a load fills, nothing for an empty file. A refused grab leaves the memory
// in use where the sort found it.
func TestSortHoldsWhatItLoads(t *testing.T) {
	const m, b = 16, 4
	for _, c := range []struct{ n, hw int }{{0, 0}, {1, 1 + b}, {5, 5 + b}, {m - 1, m - 1 + b}, {40, m + b}} {
		d := extmem.NewDisk(extmem.Config{M: m, B: b})
		rows := make([]tuple.Tuple, c.n)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(c.n - i)}
		}
		f := fill(d, 1, rows)
		d.ResetStats()
		s, err := Sort(f, ByCols([]int{0}))
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != c.n || d.Stats().MemHiWater != c.hw || d.MemInUse() != 0 {
			t.Fatalf("n=%d: %d sorted, hi-water %d, %d still held; want hi-water %d", c.n, s.Len(), d.Stats().MemHiWater, d.MemInUse(), c.hw)
		}
	}

	d := extmem.NewDisk(extmem.Config{M: m, B: b, MemFactor: 1})
	f := fill(d, 1, []tuple.Tuple{{3}, {1}, {2}, {5}, {4}})
	if err := d.Grab(10); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(f, ByCols([]int{0})); !errors.Is(err, extmem.ErrMemoryExceeded) || d.MemInUse() != 10 {
		t.Fatalf("over the allowance: err %v with %d held, want ErrMemoryExceeded with 10", err, d.MemInUse())
	}
}

func TestSortDedup(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 8, B: 2})
	rows := []tuple.Tuple{{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}, {1, 1}}
	f := fill(d, 2, rows)
	s, err := SortDedup(f, Full())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	if len(got) != 3 {
		t.Fatalf("dedup len = %d, want 3: %v", len(got), got)
	}
}

func TestSortDedupOnKeyPrefix(t *testing.T) {
	// Dedup under a key comparator keeps one tuple per key.
	d := extmem.NewDisk(extmem.Config{M: 8, B: 2})
	rows := []tuple.Tuple{{1, 10}, {1, 20}, {2, 30}, {2, 40}, {3, 50}}
	f := fill(d, 2, rows)
	s, err := SortDedup(f, ByCols([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3: %v", len(got), got)
	}
	for i, want := range []int64{1, 2, 3} {
		if got[i][0] != want {
			t.Fatalf("key %d = %d, want %d", i, got[i][0], want)
		}
	}
}

func TestSortIOBound(t *testing.T) {
	// I/O should be O((N/B) * passes); with N=4096, M=64, B=8 there are 64
	// runs, fanIn=7 -> ceil(log7(64)) = 3 merge passes (including the run
	// formation read+write that's 4 full sweeps of the file in each
	// direction at most). Assert a generous bound of 12*N/B.
	d := extmem.NewDisk(extmem.Config{M: 64, B: 8})
	rng := rand.New(rand.NewSource(7))
	rows := make([]tuple.Tuple, 4096)
	for i := range rows {
		rows[i] = tuple.Tuple{rng.Int63n(1 << 30)}
	}
	f := fill(d, 1, rows)
	d.ResetStats()
	if _, err := Sort(f, ByCols([]int{0})); err != nil {
		t.Fatal(err)
	}
	nb := int64(4096 / 8)
	if got := d.Stats().IOs(); got > 12*nb {
		t.Errorf("sort IOs = %d, want <= %d", got, 12*nb)
	}
}

func TestIsSortedDetectsDisorder(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	f := fill(d, 1, []tuple.Tuple{{2}, {1}})
	if IsSorted(f, ByCols([]int{0})) {
		t.Fatal("IsSorted true on disordered file")
	}
}

// Property: sorting any random multiset yields a sorted permutation, and
// dedup-sorting yields the sorted distinct set.
func TestSortProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(vals []uint8, mRaw, bRaw uint8) bool {
		b := int(bRaw)%8 + 1
		m := b * (int(mRaw)%4 + 3) // multiplier >= 3 keeps the merge fan-in >= 2
		d := extmem.NewDisk(extmem.Config{M: m, B: b})
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Tuple{int64(v)}
		}
		file := fill(d, 1, rows)

		s, err := Sort(file, ByCols([]int{0}))
		if err != nil {
			return false
		}
		got := drain(s)
		want := make([]int64, len(vals))
		for i, v := range vals {
			want[i] = int64(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i][0] != want[i] {
				return false
			}
		}

		ded, err := SortDedup(file, ByCols([]int{0}))
		if err != nil {
			return false
		}
		dgot := drain(ded)
		seen := map[int64]bool{}
		var distinct []int64
		for _, v := range want {
			if !seen[v] {
				seen[v] = true
				distinct = append(distinct, v)
			}
		}
		if len(dgot) != len(distinct) {
			return false
		}
		for i := range distinct {
			if dgot[i][0] != distinct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
