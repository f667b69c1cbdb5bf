package relation

import (
	"math/rand"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

// filterCase is one value-filter oracle instance: a relation of n rows over
// schema (0, 1) with values drawn from [0, dom), filtered on attribute a
// through the view [off, off+cnt), sorted by a or left in input order, on a
// disk with block size b, against the sorted distinct value set vals.
type filterCase struct {
	n, dom, b, off, cnt int
	a                   tuple.Attr
	sorted              bool
	vals                []int64
}

// filterView builds the case's view on d.
func filterView(d *extmem.Disk, c filterCase, rng *rand.Rand) *Relation {
	rows := make([]tuple.Tuple, c.n)
	for i := range rows {
		rows[i] = tuple.Tuple{rng.Int63n(int64(c.dom)), rng.Int63n(int64(c.dom))}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	if c.sorted {
		var err error
		if r, err = r.SortBy(c.a); err != nil {
			panic(err)
		}
	}
	return r.View(c.off, c.cnt)
}

// valueSet returns a sorted distinct value set of the given kind over the
// view's a-values: empty, all below them, all above them, straddling them,
// or drawn from the values of one block of the view.
func valueSet(r *Relation, a tuple.Attr, kind int, rng *rand.Rand) []int64 {
	col := r.Col(a)
	var have []int64
	r.Scan(func(t tuple.Tuple) { have = append(have, t[col]) })
	lo, hi := int64(0), int64(0)
	if len(have) > 0 {
		lo, hi = slices.Min(have), slices.Max(have)
	}
	var vals []int64
	switch kind % 5 {
	case 1:
		for range 1 + rng.Intn(4) {
			vals = append(vals, lo-1-rng.Int63n(5))
		}
	case 2:
		for range 1 + rng.Intn(4) {
			vals = append(vals, hi+1+rng.Int63n(5))
		}
	case 3:
		for range 1 + rng.Intn(8) {
			vals = append(vals, lo-2+rng.Int63n(hi-lo+5))
		}
	case 4:
		if len(have) > 0 {
			b := r.Disk().B()
			start := rng.Intn(len(have)) / b * b
			for _, v := range have[start:min(start+b, len(have))] {
				if rng.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
		}
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

// checkFilterValues runs SemijoinValues on the case's view, from a random
// index on, and checks its rows, its resume index and its charge against a
// map oracle. The rows are the members of vals from that index on, in view
// order. On a view sorted by a, the filter stops at the first tuple above
// every value of vals (at once for an empty vals), so it reads the block
// windows up to and including that tuple's; on an unsorted view it reads
// them all and stops at the end. Either way it writes ⌈kept/B⌉ blocks.
func checkFilterValues(t *testing.T, c filterCase, seed int64, kind int) {
	t.Helper()
	d := disk(4*c.b, c.b)
	rng := rand.New(rand.NewSource(seed))
	r := filterView(d, c, rng)
	c.vals = valueSet(r, c.a, kind, rng)
	from := rng.Intn(c.cnt + 1)
	in := map[int64]bool{}
	for _, v := range c.vals {
		in[v] = true
	}
	col := r.Col(c.a)
	var want []tuple.Tuple
	wantStop := c.cnt
	for i, tp := range Contents(r)[from:] {
		if c.sorted && wantStop == c.cnt && (len(c.vals) == 0 || tp[col] > c.vals[len(c.vals)-1]) {
			wantStop = from + i
		}
		if in[tp[col]] {
			want = append(want, tp)
		}
	}
	read := c.cnt // the tuples the filter reads up to
	if c.sorted {
		read = min(wantStop+1, c.cnt)
		if len(c.vals) == 0 {
			read = from
		}
	}
	wantCost := extmem.Stats{Reads: windows(c.off+from, read-from, c.b), Writes: int64((len(want) + c.b - 1) / c.b)}
	before := d.Stats()
	out, stop, err := SemijoinValues(r, c.a, c.vals, from)
	if err != nil {
		t.Fatal(err)
	}
	if cost := d.Stats().Sub(before); cost.Reads != wantCost.Reads || cost.Writes != wantCost.Writes {
		t.Fatalf("%+v from %d: charged %+v, want %+v", c, from, cost, wantCost)
	}
	if stop != wantStop {
		t.Fatalf("%+v from %d: stopped at %d, want %d", c, from, stop, wantStop)
	}
	if got := Contents(out); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%+v from %d: got %v, want %v", c, from, got, want)
	}
}

// FuzzFilterValuesOracle fuzzes the value filter, whose sorted path decides
// blocks below the value set's range without probing them and a run of
// equal values with a single probe, and stops above the range: random views
// sorted by the filtered attribute or not, and value sets that are empty,
// below, above or straddling the view's values, or drawn from one block.
func FuzzFilterValuesOracle(f *testing.F) {
	f.Add(uint8(40), uint8(12), uint8(2), uint8(3), uint8(30), false, true, uint8(3), int64(1))
	f.Add(uint8(33), uint8(50), uint8(1), uint8(0), uint8(33), true, true, uint8(4), int64(2))
	f.Add(uint8(20), uint8(5), uint8(3), uint8(5), uint8(9), false, false, uint8(0), int64(3))
	// Six values over 60 sorted tuples: blocks that straddle the set's range
	// hold runs of repeated values.
	f.Add(uint8(60), uint8(5), uint8(2), uint8(1), uint8(58), false, true, uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, n, dom, b, off, cnt uint8, second, sorted bool, kind uint8, seed int64) {
		c := filterCase{n: int(n % 80), dom: 1 + int(dom%60), b: 2 + int(b%4), sorted: sorted}
		if second {
			c.a = 1
		}
		c.off = int(off) % (c.n + 1)
		c.cnt = int(cnt) % (c.n - c.off + 1)
		checkFilterValues(t, c, seed, int(kind))
	})
}

// windows is how many block windows a scan of tuples [off, off+n) touches.
func windows(off, n, b int) int64 {
	if n == 0 {
		return 0
	}
	return int64((off+n-1)/b - off/b + 1)
}

// FuzzHeavySplitOracle fuzzes the load by value against the map oracle
// splitOracle: random views of a relation sorted by the split attribute, at
// random offsets, on disks of random M and B. The heavy groups must be the
// values with at least M tuples, in order, and the chunks those a load of
// the light tuples alone would cut. The charge must be exact: the view's
// block windows once, no write, and memory for the largest chunk's filled
// length, none with no light value.
func FuzzHeavySplitOracle(f *testing.F) {
	f.Add(uint8(60), uint8(6), uint8(1), uint8(0), uint8(3), uint8(50), int64(1))
	f.Add(uint8(80), uint8(3), uint8(3), uint8(2), uint8(7), uint8(70), int64(2))
	f.Add(uint8(40), uint8(40), uint8(2), uint8(1), uint8(0), uint8(40), int64(3))
	f.Add(uint8(9), uint8(1), uint8(0), uint8(0), uint8(1), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, n, dom, b, m, off, cnt uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		B := 1 + int(b%4)
		M := 3*B + int(m)%(2*B+1)
		d := disk(M, B)
		rows := make([]tuple.Tuple, int(n%90))
		for i := range rows {
			rows[i] = tuple.Tuple{rng.Int63n(1 + int64(dom%30)), rng.Int63n(4)}
		}
		SortTuples(rows)
		lo := int(off) % (len(rows) + 1)
		view := rows[lo : lo+int(cnt)%(len(rows)-lo+1)]
		r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1}).View(lo, len(view))
		checkSplit(t, r, view, lo, M, B)
	})
}
