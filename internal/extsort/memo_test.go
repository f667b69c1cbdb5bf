package extsort

import (
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/tuple"
)

func memoDisk(m, b int) (*extmem.Disk, *opcache.Memo) {
	d := extmem.NewDisk(extmem.Config{M: m, B: b})
	return d, opcache.Enable(d)
}

func TestSortColsEmptyFile(t *testing.T) {
	for _, memo := range []bool{false, true} {
		d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
		if memo {
			opcache.Enable(d)
		}
		f := d.NewFile(2)
		s, err := SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("memo=%v: len = %d, want 0", memo, s.Len())
		}
		// Sorting an empty file twice must also be consistent.
		s2, err := SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if s2.Len() != 0 {
			t.Fatalf("memo=%v: second sort len = %d", memo, s2.Len())
		}
	}
}

func TestSortColsSingleTuple(t *testing.T) {
	d, _ := memoDisk(16, 4)
	f := fill(d, 3, []tuple.Tuple{{7, 8, 9}})
	s, err := SortCols(f, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	if len(got) != 1 || tuple.CompareFull(got[0], tuple.Tuple{7, 8, 9}) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSortDedupColsAllEqual(t *testing.T) {
	d, _ := memoDisk(8, 2)
	rows := make([]tuple.Tuple, 50)
	for i := range rows {
		rows[i] = tuple.Tuple{4, 4}
	}
	f := fill(d, 2, rows)
	s, err := SortDedupCols(f, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(s); len(got) != 1 || got[0][0] != 4 {
		t.Fatalf("dedup of all-equal: %v", got)
	}
	// Repeat through the memo: same single tuple.
	s2, err := SortDedupCols(f, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(s2); len(got) != 1 {
		t.Fatalf("memoized dedup of all-equal: %v", got)
	}
}

// A memo hit must leave every counter — reads, writes, hi-water, and the
// per-phase breakdown — exactly as a real re-sort would.
func TestMemoReplayBitIdentical(t *testing.T) {
	rows := []tuple.Tuple{{5, 1}, {3, 2}, {5, 0}, {1, 9}, {2, 2}, {3, 3}, {0, 0}, {4, 4}, {2, 1}}
	run := func(memo bool) (extmem.Stats, map[string]extmem.Stats, []tuple.Tuple) {
		d := extmem.NewDisk(extmem.Config{M: 4, B: 1})
		d.EnablePhases()
		if memo {
			opcache.Enable(d)
		}
		f := fill(d, 2, rows)
		d.ResetStats()
		d.ResetPhases()
		// Sort twice: the second sort hits when the memo is on.
		if _, err := SortCols(f, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		s, err := SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		return d.Stats(), d.PhaseStats(), drain(s)
	}
	stOn, phOn, outOn := run(true)
	stOff, phOff, outOff := run(false)
	if stOn != stOff {
		t.Fatalf("stats diverge: memoized %+v, direct %+v", stOn, stOff)
	}
	if !reflect.DeepEqual(phOn, phOff) {
		t.Fatalf("phase stats diverge: memoized %+v, direct %+v", phOn, phOff)
	}
	if !reflect.DeepEqual(outOn, outOff) {
		t.Fatalf("outputs diverge: %v vs %v", outOn, outOff)
	}
}

func TestMemoHitCounters(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 2, []tuple.Tuple{{2, 1}, {1, 2}, {3, 0}})
	for i := 0; i < 3; i++ {
		if _, err := SortCols(f, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.BytesReplayed != 2*3*2*8 {
		t.Fatalf("bytes replayed = %d, want %d", st.BytesReplayed, 2*3*2*8)
	}
	// A different column order is a different key: miss again.
	if _, err := SortCols(f, []int{1}); err != nil {
		t.Fatal(err)
	}
	if st = m.Stats(); st.Misses != 2 {
		t.Fatalf("misses after new order = %d, want 2", st.Misses)
	}
}

// Sort and dedup-sort of the same file under the same column order are
// distinct memo keys.
func TestMemoDedupDistinctFromSort(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 1, []tuple.Tuple{{2}, {2}, {1}})
	if _, err := SortCols(f, []int{0}); err != nil {
		t.Fatal(err)
	}
	s, err := SortDedupCols(f, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("dedup len = %d, want 2 (hit the plain sort's entry?)", s.Len())
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
}

// Two files built independently with identical contents share one entry via
// the content-hash path (the exhaustive strategy rebuilds restriction copies
// per branch with exactly this shape).
func TestMemoContentHashHitAcrossFiles(t *testing.T) {
	d, m := memoDisk(16, 4)
	rows := []tuple.Tuple{{9, 1}, {8, 2}, {7, 3}, {6, 4}}
	f1 := fill(d, 2, rows)
	f2 := fill(d, 2, rows)
	if f1.ContentID() == f2.ContentID() {
		t.Fatal("distinct files share a content ID")
	}
	if _, err := SortCols(f1, []int{0}); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	s, err := SortCols(f2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	// The alias registered by the slow path makes the next lookup fast; the
	// charges are the same either way.
	st := d.Stats()
	if got := drain(s); got[0][0] != 6 {
		t.Fatalf("replayed output wrong: %v", got)
	}
	d.ResetStats()
	if _, err := SortCols(f2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if d.Stats() != st {
		t.Fatalf("fast-path replay charged %+v, slow-path %+v", d.Stats(), st)
	}
}

// The memo also hits across CloneTo views of the same file without hashing
// (ContentID and Version survive the clone).
func TestMemoHitAcrossClones(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 1, []tuple.Tuple{{3}, {1}, {2}})
	if _, err := SortCols(f, []int{0}); err != nil {
		t.Fatal(err)
	}
	clone := f.CloneTo(d)
	if clone.ContentID() != f.ContentID() || clone.Version() != f.Version() {
		t.Fatal("clone does not preserve content identity")
	}
	s, err := SortCols(clone, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (clone should hit the original's entry)", st.Hits)
	}
	if got := drain(s); got[0][0] != 1 || got[2][0] != 3 {
		t.Fatalf("clone sort output: %v", got)
	}
}

// Appending to a file bumps its version: older entries must not hit, and the
// new sort must see the new tuple.
func TestMemoInvalidationOnAppend(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 1, []tuple.Tuple{{2}, {1}})
	if _, err := SortCols(f, []int{0}); err != nil {
		t.Fatal(err)
	}
	w := f.NewWriter()
	w.Append(tuple.Tuple{0})
	w.Close()
	s, err := SortCols(f, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	if len(got) != 3 || got[0][0] != 0 {
		t.Fatalf("post-append sort stale: %v", got)
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
}

// Suspended sorts must not record entries: their observed charges are zero,
// which would corrupt later replays into charged contexts.
func TestMemoSkipsSuspendedSorts(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 1, []tuple.Tuple{{2}, {1}})
	restore := d.Suspend()
	if _, err := SortCols(f, []int{0}); err != nil {
		t.Fatal(err)
	}
	restore()
	if st := m.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	d.ResetStats()
	if _, err := SortCols(f, []int{0}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().IOs() == 0 {
		t.Fatal("post-suspend sort charged nothing: an empty-tape entry leaked")
	}
}

// The generic comparator entry points never consult the memo.
func TestGenericSortUnmemoized(t *testing.T) {
	d, m := memoDisk(16, 4)
	f := fill(d, 1, []tuple.Tuple{{2}, {1}})
	for i := 0; i < 2; i++ {
		if _, err := Sort(f, ByCols([]int{0})); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("generic Sort touched the memo: %+v", st)
	}
}
