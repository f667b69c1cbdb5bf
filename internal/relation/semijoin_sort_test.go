package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

// TestSemijoinSortsUnsortedDestination holds Semijoin on an r not sorted by
// the join attribute to SortBy followed by Semijoin: the same rows in the
// same order with the same SortCols, for 2⌈|r|/B⌉ fewer I/Os (the sorted
// copy's write and re-read), no higher memory peak, and all memory handed
// back. M = 16 and B = 4, so r of up to 16 tuples is one run and a longer
// one is merged, 40 and more after a merge pass.
func TestSemijoinSortsUnsortedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := func(n, dom int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{int64(rng.Intn(dom)), int64(rng.Intn(dom))}
		}
		return out
	}
	shift := func(ts []tuple.Tuple, by int64) []tuple.Tuple {
		out := make([]tuple.Tuple, len(ts))
		for i, t := range ts {
			out[i] = tuple.Tuple{t[0] + by, t[1] + by}
		}
		return out
	}
	dup := rows(6, 4)
	dup = append(dup, dup...)
	dup = append(dup, dup...)
	cases := []struct {
		name      string
		r, s      []tuple.Tuple
		lo, n     int // the view of r taken, n < 0 for the whole relation
		wantEmpty bool
		wantAll   bool
	}{
		{name: "empty r", r: nil, s: rows(9, 5), n: -1, wantEmpty: true},
		{name: "empty s", r: rows(10, 5), s: nil, n: -1, wantEmpty: true},
		{name: "empty view", r: rows(10, 5), s: rows(9, 5), lo: 4, n: 0, wantEmpty: true},
		{name: "all kept", r: rows(13, 4), s: rows(60, 4), n: -1, wantAll: true},
		{name: "none kept", r: rows(13, 4), s: shift(rows(9, 4), 100), n: -1, wantEmpty: true},
		{name: "duplicates", r: dup, s: append(rows(5, 4), rows(5, 4)...), n: -1},
		{name: "single run, n a multiple of B", r: rows(16, 8), s: rows(8, 8), n: -1},
		{name: "single run, n not a multiple of B", r: rows(7, 8), s: rows(8, 8), n: -1},
		{name: "two runs", r: rows(29, 12), s: rows(10, 12), n: -1},
		{name: "merge pass, n a multiple of B", r: rows(64, 20), s: rows(30, 20), n: -1},
		{name: "merge pass, n not a multiple of B", r: rows(57, 20), s: rows(30, 20), n: -1},
		{name: "view, one run", r: rows(20, 6), s: rows(6, 6), lo: 3, n: 11},
		{name: "view, merged", r: rows(70, 20), s: rows(25, 20), lo: 5, n: 61},
	}
	for _, c := range cases {
		for _, a := range []tuple.Attr{0, 1} {
			run := func(presort bool) (*Relation, extmem.Stats, int) {
				d := disk(16, 4)
				r := FromTuples(d, tuple.Schema{0, 1}, c.r)
				if c.n >= 0 {
					r = r.View(c.lo, c.n)
				}
				s, err := FromTuples(d, tuple.Schema{a, 2}, func() []tuple.Tuple {
					out := make([]tuple.Tuple, len(c.s))
					for i, t := range c.s {
						out[i] = tuple.Tuple{t[0], t[1]}
					}
					return out
				}()).SortBy(a)
				if err != nil {
					t.Fatal(err)
				}
				d.ResetStats()
				if presort {
					if r, err = r.SortBy(a); err != nil {
						t.Fatal(err)
					}
				}
				out, err := Semijoin(r, s, a)
				if err != nil {
					t.Fatal(err)
				}
				return out, d.Stats(), d.MemInUse()
			}
			want, wantStats, _ := run(true)
			got, gotStats, inUse := run(false)
			name := c.name + map[tuple.Attr]string{0: " on v0", 1: " on v1"}[a]
			if !reflect.DeepEqual(Contents(got), Contents(want)) || !reflect.DeepEqual(got.SortCols(), want.SortCols()) {
				t.Fatalf("%s: got %v sorted %v, want %v sorted %v", name, Contents(got), got.SortCols(), Contents(want), want.SortCols())
			}
			n := len(c.r)
			if c.n >= 0 {
				n = c.n
			}
			if c.wantEmpty && got.Len() != 0 || c.wantAll && got.Len() != n {
				t.Fatalf("%s: kept %d of %d", name, got.Len(), n)
			}
			blocks := int64((n + 3) / 4)
			if wantStats.Reads-gotStats.Reads != blocks || wantStats.Writes-gotStats.Writes != blocks {
				t.Fatalf("%s: charged %+v, want %d reads and writes fewer than %+v", name, gotStats, blocks, wantStats)
			}
			if gotStats.MemHiWater > wantStats.MemHiWater || inUse != 0 {
				t.Fatalf("%s: peak %d (SortBy+Semijoin %d), %d still in use", name, gotStats.MemHiWater, wantStats.MemHiWater, inUse)
			}
		}
	}
}

// TestSemijoinNeedsSortedRight keeps the one remaining precondition: s must
// be sorted by the join attribute.
func TestSemijoinNeedsSortedRight(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}})
	s := FromTuples(d, tuple.Schema{0, 2}, []tuple.Tuple{{2, 1}, {1, 1}})
	if _, err := Semijoin(r, s, 0); err == nil {
		t.Fatal("Semijoin accepted an unsorted right side")
	}
}
