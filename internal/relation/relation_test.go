package relation

import (
	"math/rand"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

func disk(m, b int) *extmem.Disk { return extmem.NewDisk(extmem.Config{M: m, B: b}) }

func TestBuilderAndScan(t *testing.T) {
	d := disk(16, 4)
	b := NewBuilder(d, tuple.Schema{0, 1})
	b.Add(tuple.Tuple{1, 2})
	b.Add(tuple.Tuple{3, 4})
	r := b.Finish()
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	got := Contents(r)
	if got[0][0] != 1 || got[1][1] != 4 {
		t.Fatalf("contents = %v", got)
	}
}

func TestSortByAndSortedness(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{5, 7}, []tuple.Tuple{
		{3, 1}, {1, 9}, {2, 2}, {1, 1},
	})
	s, err := r.SortBy(7)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SortedByAttr(7) || s.SortedByAttr(5) {
		t.Fatal("sortedness flags wrong")
	}
	got := Contents(s)
	want := []int64{1, 1, 2, 9}
	for i, tp := range got {
		if tp[1] != want[i] {
			t.Fatalf("col 7 order = %v", got)
		}
	}
	// Re-sorting by the same attr returns the same view (no extra I/O).
	before := d.Stats().IOs()
	s2, err := s.SortBy(7)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s || d.Stats().IOs() != before {
		t.Fatal("redundant sort not elided")
	}
}

func TestSortDedup(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 1}, {1, 1}, {2, 2}, {2, 2}, {2, 3},
	})
	s, err := r.SortDedupBy(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("dedup len = %d, want 3", s.Len())
	}
}

func TestGroups(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {3, 3},
	})
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	var lens []int
	err = s.Groups(0, func(g Group) error {
		vals = append(vals, g.Value)
		lens = append(lens, g.Rel.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
	if lens[0] != 2 || lens[1] != 1 || lens[2] != 3 {
		t.Fatalf("lens = %v", lens)
	}
}

func TestGroupsRequiresSorted(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {1}})
	if err := r.Groups(0, func(Group) error { return nil }); err == nil {
		t.Fatal("Groups on unsorted view accepted")
	}
}

func TestFindRange(t *testing.T) {
	d := disk(64, 4)
	var rows []tuple.Tuple
	for i := 0; i < 100; i++ {
		rows = append(rows, tuple.Tuple{int64(i / 10), int64(i)})
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	g := s.FindRange(0, 3)
	if g.Len() != 10 {
		t.Fatalf("range len = %d, want 10", g.Len())
	}
	Contents(g) // all values must be 3
	for _, tp := range Contents(g) {
		if tp[0] != 3 {
			t.Fatalf("value %d in range for 3", tp[0])
		}
	}
	if s.FindRange(0, 99).Len() != 0 {
		t.Fatal("missing value should give empty range")
	}
}

func TestHeavySplit(t *testing.T) {
	d := disk(4, 1) // M = 4: groups with >= 4 tuples are heavy
	var rows []tuple.Tuple
	for i := 0; i < 6; i++ {
		rows = append(rows, tuple.Tuple{10, int64(i)}) // heavy group (6)
	}
	for i := 0; i < 2; i++ {
		rows = append(rows, tuple.Tuple{20, int64(i)}) // light group (2)
	}
	for i := 0; i < 4; i++ {
		rows = append(rows, tuple.Tuple{30, int64(i)}) // heavy group (4)
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, light, err := s.Heavy(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(heavy) != 2 {
		t.Fatalf("heavy groups = %d, want 2", len(heavy))
	}
	if heavy[0].Value != 10 || heavy[0].Rel.Len() != 6 {
		t.Fatalf("heavy[0] = %v len %d", heavy[0].Value, heavy[0].Rel.Len())
	}
	if heavy[1].Value != 30 || heavy[1].Rel.Len() != 4 {
		t.Fatalf("heavy[1] = %v len %d", heavy[1].Value, heavy[1].Rel.Len())
	}
	if light.Len() != 2 {
		t.Fatalf("light len = %d, want 2", light.Len())
	}
	if !light.SortedByAttr(0) {
		t.Fatal("light part lost sortedness")
	}
}

// TestHeavyChargesOneScan pins what the split charges in its three cases:
// nothing below M tuples, one scan when no value is heavy, and one scan plus
// one pass over the light segments plus their writes otherwise. Every view
// starts mid-block.
func TestHeavyChargesOneScan(t *testing.T) {
	d := disk(6, 2) // M = 6: groups with >= 6 tuples are heavy
	sorted := func(vals ...int64) *Relation {
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Tuple{v, int64(i)}
		}
		return FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1})
	}
	split := func(r *Relation) ([]Group, *Relation, extmem.Stats) {
		t.Helper()
		before := d.Stats()
		heavy, light, err := r.Heavy(0)
		if err != nil {
			t.Fatal(err)
		}
		if d.MemInUse() != 0 || d.Stats().MemHiWater != 0 {
			t.Fatalf("Heavy grabbed memory: in use %d, hi-water %d", d.MemInUse(), d.Stats().MemHiWater)
		}
		return heavy, light, d.Stats().Sub(before)
	}

	// N < M: five tuples of one value, no operator runs.
	short := sorted(7, 7, 7, 7, 7, 7).View(1, 5)
	if heavy, light, cost := split(short); len(heavy) != 0 || light != short || cost.IOs() != 0 {
		t.Fatalf("N < M: %d heavy groups, light is view %v, charged %+v", len(heavy), light == short, cost)
	}

	// Nothing heavy: tuples [3, 17) span blocks 1..8, read once, none written.
	var pairs []int64
	for v := range int64(10) {
		pairs = append(pairs, v, v)
	}
	flat := sorted(pairs...).View(3, 14)
	if heavy, light, cost := split(flat); len(heavy) != 0 || light != flat || cost != (extmem.Stats{Reads: 8}) {
		t.Fatalf("no heavy value: %d heavy groups, light is view %v, charged %+v", len(heavy), light == flat, cost)
	}

	// Heavy groups: the view is tuples [1, 23), with 2 at [1, 8) and 6 at
	// [12, 18) heavy. The scan reads blocks 0..11 (12), the light segments
	// [8, 12) and [18, 23) blocks 4, 5 and 9..11 (5), and their 9 tuples
	// are written in 5 blocks. A reader re-aimed per light group would read
	// 8 blocks for them.
	mixed := sorted(1, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 8, 8).View(1, 22)
	heavy, light, cost := split(mixed)
	if cost != (extmem.Stats{Reads: 17, Writes: 5}) {
		t.Fatalf("heavy groups: charged %+v, want 17 reads and 5 writes", cost)
	}
	if len(heavy) != 2 || heavy[0].Value != 2 || heavy[0].Rel.Len() != 7 || heavy[1].Value != 6 || heavy[1].Rel.Len() != 6 {
		t.Fatalf("heavy groups = %+v", heavy)
	}
	var got []int64
	for _, tp := range Contents(light) {
		got = append(got, tp[0])
	}
	if want := []int64{3, 4, 4, 5, 7, 7, 7, 8, 8}; !slices.Equal(got, want) || !light.SortedByAttr(0) {
		t.Fatalf("light values = %v (sorted %v), want %v", got, light.SortedByAttr(0), want)
	}
}

func TestLoadChunks(t *testing.T) {
	d := disk(8, 2)
	var rows []tuple.Tuple
	for i := 0; i < 20; i++ {
		rows = append(rows, tuple.Tuple{int64(i)})
	}
	r := FromTuples(d, tuple.Schema{0}, rows)
	var sizes []int
	err := r.LoadChunks(func(c *Chunk) error {
		sizes = append(sizes, c.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 8 || sizes[1] != 8 || sizes[2] != 4 {
		t.Fatalf("chunk sizes = %v", sizes)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

func TestLoadChunksBy(t *testing.T) {
	d := disk(4, 1) // M=4
	var rows []tuple.Tuple
	// Groups of size 3, 3, 2, 1: chunks must respect group boundaries.
	for v, n := range map[int]int{1: 3, 2: 3, 3: 2, 4: 1} {
		for i := 0; i < n; i++ {
			rows = append(rows, tuple.Tuple{int64(v), int64(i)})
		}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	err = s.LoadChunksBy(0, func(c *Chunk) error {
		if c.Len() > 2*4 {
			t.Fatalf("chunk exceeds 2M: %d", c.Len())
		}
		// Values are the chunk's distinct v-values, strictly increasing.
		var distinct []int64
		for _, tp := range c.Rows() {
			if len(distinct) == 0 || tp[0] != distinct[len(distinct)-1] {
				distinct = append(distinct, tp[0])
			}
		}
		if !slices.Equal(c.Values, distinct) {
			t.Fatalf("chunk values %v, want %v", c.Values, distinct)
		}
		for i := 1; i < len(c.Values); i++ {
			if c.Values[i] <= c.Values[i-1] {
				t.Fatalf("chunk values not strictly increasing: %v", c.Values)
			}
		}
		// Group integrity: all tuples of a value must be in one chunk.
		for _, v := range c.Values {
			want := map[int64]int{1: 3, 2: 3, 3: 2, 4: 1}[v]
			got := 0
			for _, tp := range c.Rows() {
				if tp[0] == v {
					got++
				}
			}
			if got != want {
				t.Fatalf("group %d split: %d of %d in chunk", v, got, want)
			}
		}
		total += c.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 9 {
		t.Fatalf("total loaded = %d, want 9", total)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

// checkGroupRows checks GroupRows on one chunk loaded by column 0: every
// value of the chunk finds exactly its rows, and every absent value (between
// two values, below the first, above the last) finds none.
func checkGroupRows(t *testing.T, c *Chunk) {
	t.Helper()
	if len(c.Starts) != len(c.Values)+1 || c.Starts[0] != 0 || c.Starts[len(c.Values)] != c.Len() {
		t.Fatalf("starts %v do not frame %d rows of %d values", c.Starts, c.Len(), len(c.Values))
	}
	for _, v := range c.Values {
		var want []tuple.Tuple
		for _, tp := range c.Rows() {
			if tp[0] == v {
				want = append(want, tp)
			}
		}
		got := GroupRows(c.Rows(), c.Values, c.Starts, v)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("GroupRows(%d) = %v, want %v", v, got, want)
		}
	}
	first, last := c.Values[0], c.Values[len(c.Values)-1]
	absent := []int64{first - 1, last + 1}
	for i := 1; i < len(c.Values); i++ {
		if c.Values[i] > c.Values[i-1]+1 {
			absent = append(absent, c.Values[i-1]+1)
		}
	}
	for _, v := range absent {
		if got := GroupRows(c.Rows(), c.Values, c.Starts, v); len(got) != 0 {
			t.Fatalf("GroupRows(%d) of absent value = %v", v, got)
		}
	}
}

// TestGroupRows covers the group-offset lookup over chunks loaded by value:
// single-row groups, first and last groups, a heavy group that outgrows the
// 2M rows of a light chunk, and a nested load that takes its own arena.
func TestGroupRows(t *testing.T) {
	const m = 4
	d := disk(m, 1)
	var rows []tuple.Tuple
	// Chunks: {10, 20}, {30, 40} with 40 heavy (3M rows), {50, 60}.
	for _, g := range []struct{ v, n int }{{10, 1}, {20, 3}, {30, 1}, {40, 3 * m}, {50, 1}, {60, 2}} {
		for i := 0; i < g.n; i++ {
			rows = append(rows, tuple.Tuple{int64(g.v), int64(i)})
		}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1})
	var chunks, heavy int
	err := r.LoadChunksBy(0, func(c *Chunk) error {
		chunks++
		if c.Len() > 2*m {
			heavy++
		}
		checkGroupRows(t, c)
		// A nested load takes its own arena; the outer chunk's offsets
		// must survive it.
		inner := 0
		if err := lightRel(d, 11, 1).LoadChunksBy(0, func(ic *Chunk) error {
			checkGroupRows(t, ic)
			inner += ic.Len()
			return nil
		}); err != nil {
			return err
		}
		if inner != 11 {
			t.Fatalf("nested load read %d rows, want 11", inner)
		}
		checkGroupRows(t, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 3 || heavy != 1 {
		t.Fatalf("loaded %d chunks, %d beyond 2M rows; want 3 and 1", chunks, heavy)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

// lightRel returns a relation of n tuples (v, i) sorted by v, in groups of
// groupSize tuples per value.
func lightRel(d *extmem.Disk, n, groupSize int) *Relation {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{int64(i / groupSize), int64(i)}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	return r.WithSortOrder([]int{0, 1})
}

// TestNestedLoadChunks runs a second load of the same view inside each
// chunk's fn, as the blocked joins do, and checks that the inner load leaves
// the outer chunk's rows and values untouched.
func TestNestedLoadChunks(t *testing.T) {
	d := disk(4, 1)
	r := lightRel(d, 13, 2)
	want := Contents(r)
	outer := func(c *Chunk) error {
		rows := make([]tuple.Tuple, c.Len())
		for i, tp := range c.Rows() {
			rows[i] = tuple.Clone(tp)
		}
		vals := slices.Clone(c.Values)
		var inner []tuple.Tuple
		collect := func(ic *Chunk) error {
			for _, tp := range ic.Rows() {
				inner = append(inner, tuple.Clone(tp))
			}
			return nil
		}
		if err := r.LoadChunks(collect); err != nil {
			return err
		}
		if err := r.LoadChunksBy(0, collect); err != nil {
			return err
		}
		for i, tp := range c.Rows() {
			if !slices.Equal(tp, rows[i]) {
				t.Fatalf("outer row %d changed by the inner load: %v, was %v", i, tp, rows[i])
			}
		}
		if !slices.Equal(c.Values, vals) {
			t.Fatalf("outer values changed by the inner load: %v, was %v", c.Values, vals)
		}
		if len(inner) != 2*len(want) {
			t.Fatalf("inner loads read %d rows, want %d", len(inner), 2*len(want))
		}
		for i, tp := range inner {
			if !slices.Equal(tp, want[i%len(want)]) {
				t.Fatalf("inner row %d = %v, want %v", i, tp, want[i%len(want)])
			}
		}
		return nil
	}
	if err := r.LoadChunks(outer); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadChunksBy(0, outer); err != nil {
		t.Fatal(err)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

// TestLoadChunksByAllocs guards the pooled chunk arena: a load's host
// allocations do not grow with the number of tuples it reads.
func TestLoadChunksByAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const m, n = 8, 64
	allocs := func(tuples int) float64 {
		r := lightRel(disk(m, 2), tuples, 3)
		return testing.AllocsPerRun(50, func() {
			if err := r.LoadChunksBy(0, func(c *Chunk) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a4 := allocs(n), allocs(4*n); a1 != a4 {
		t.Fatalf("LoadChunksBy allocates %v times over %d tuples but %v times over %d", a1, n, a4, 4*n)
	}
}

// TestChunkLoadAllocsFlat guards the aliasing chunk loads: rows are not
// copied and their headers are built only on request, so a pass that never
// calls Rows allocates the same however many rows it loads, while Rows still
// reads back the view's contents.
func TestChunkLoadAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const m, b = 256, 16
	allocs := func(n int) float64 {
		r := lightRel(disk(m, b), n, 4)
		want := Contents(r)
		byValue := func(fn func(*Chunk) error) error { return r.LoadChunksBy(0, fn) }
		for _, load := range []func(func(*Chunk) error) error{r.LoadChunks, byValue} {
			var got []tuple.Tuple
			if err := load(func(c *Chunk) error {
				got = append(got, c.Rows()...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("Rows over %d tuples differ from Contents", n)
			}
		}
		return testing.AllocsPerRun(20, func() {
			skip := func(*Chunk) error { return nil }
			if err := r.LoadChunks(skip); err != nil {
				t.Fatal(err)
			}
			if err := r.LoadChunksBy(0, skip); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024), allocs(16384); small != large {
		t.Fatalf("chunk loads allocate %v times over 1024 tuples but %v times over 16384", small, large)
	}
}

func TestViewBounds(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds view accepted")
		}
	}()
	r.View(1, 5)
}

func TestSemijoin(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 10}, {2, 20}, {3, 30}, {3, 31},
	})
	s := FromTuples(d, tuple.Schema{0, 2}, []tuple.Tuple{
		{1, 100}, {3, 300}, {5, 500},
	})
	rs, _ := r.SortBy(0)
	ss, _ := s.SortBy(0)
	out, err := Semijoin(rs, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := Contents(out)
	if len(got) != 3 {
		t.Fatalf("semijoin len = %d, want 3: %v", len(got), got)
	}
	for _, tp := range got {
		if tp[0] == 2 {
			t.Fatal("value 2 should be filtered")
		}
	}
	if !out.SortedByAttr(0) {
		t.Fatal("semijoin lost sortedness")
	}
}

// TestSemijoinValuesAndAnti checks that SemijoinValues keeps the members of
// the value set and drops the rest, the tuples an anti-semijoin would keep.
// On an unsorted view it reads to the end; on a view sorted by the filtered
// attribute it stops at the first tuple above the set.
func TestSemijoinValuesAndAnti(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 10}, {2, 20}, {3, 30}, {4, 40},
	})
	for _, tc := range []struct {
		view     *Relation
		vals     []int64
		kept     []tuple.Tuple
		wantStop int
	}{
		{r, []int64{1, 3}, []tuple.Tuple{{1, 10}, {3, 30}}, 4},
		{r.WithSortOrder([]int{0, 1}), []int64{1, 3}, []tuple.Tuple{{1, 10}, {3, 30}}, 3},
		{r.WithSortOrder([]int{0, 1}), []int64{0, 2}, []tuple.Tuple{{2, 20}}, 2},
	} {
		out, stop, err := SemijoinValues(tc.view, 0, tc.vals, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := Contents(out); !slices.EqualFunc(got, tc.kept, slices.Equal) || stop != tc.wantStop {
			t.Fatalf("sortCols %v vals %v: kept %v, stop %d; want %v, %d", tc.view.SortCols(), tc.vals, got, stop, tc.kept, tc.wantStop)
		}
	}
}

// TestSemijoinValuesResume pins the charge of one merge pass: a neighbour
// sorted by the filtered attribute, seen through a view that starts
// mid-block, is filtered by the value sets of successive chunks, each filter
// resuming where the previous one stopped. Tuple i of the base relation has
// value i/2 and block k holds tuples 4k..4k+3; the view starts at tuple 2.
// Every block of the view is read once, plus the block each stop falls in,
// which the next filter reads again: 10 reads over the view's 6 blocks and
// 5 chunks, where filtering the whole view per chunk would read 22.
func TestSemijoinValuesResume(t *testing.T) {
	d := disk(16, 4)
	rows := make([]tuple.Tuple, 24)
	for i := range rows {
		rows[i] = tuple.Tuple{int64(i / 2), int64(i)}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1}).View(2, 22)
	from := 0
	for _, tc := range []struct {
		vals      []int64
		kept      []int64 // the kept tuples' second column
		stop      int     // an index of the view
		wantStats extmem.Stats
	}{
		// Blocks 0 and 1; value 3 at view index 4 stops it.
		{[]int64{1, 2}, []int64{2, 3, 4, 5}, 4, extmem.Stats{Reads: 2, Writes: 1}},
		// Block 1 again, below the set, then block 2; value 5 stops it.
		{[]int64{4}, []int64{8, 9}, 8, extmem.Stats{Reads: 2, Writes: 1}},
		// Blocks 2, 3 and 4; value 8 stops it.
		{[]int64{5, 6, 7}, []int64{10, 11, 12, 13, 14, 15}, 14, extmem.Stats{Reads: 3, Writes: 2}},
		// Block 4, below the set, then block 5; value 11 stops it.
		{[]int64{10}, []int64{20, 21}, 20, extmem.Stats{Reads: 2, Writes: 1}},
		// The rest of block 5, below the set: no stop before the end.
		{[]int64{12}, nil, 22, extmem.Stats{Reads: 1}},
	} {
		d.ResetStats()
		out, stop, err := SemijoinValues(r, 0, tc.vals, from)
		if err != nil {
			t.Fatal(err)
		}
		if s := d.Stats(); s.Reads != tc.wantStats.Reads || s.Writes != tc.wantStats.Writes {
			t.Fatalf("vals %v: charged %v, want %v", tc.vals, s, tc.wantStats)
		}
		var kept []int64
		for _, tp := range Contents(out) {
			kept = append(kept, tp[1])
		}
		if !slices.Equal(kept, tc.kept) || stop != tc.stop {
			t.Fatalf("vals %v: kept %v, stop %d; want %v, %d", tc.vals, kept, stop, tc.kept, tc.stop)
		}
		if !out.SortedByAttr(0) {
			t.Fatalf("vals %v: the filter lost the sort order", tc.vals)
		}
		from = stop
	}
}

// TestSemijoinValuesProbeOrders checks the galloping value probe of
// SemijoinValues against a map oracle on inputs whose
// probed column arrives ascending, descending, shuffled and in long runs of
// one value, with value sets that are empty, below or above every input
// value, a single value, or a random subset. The memo is off, so every call
// runs the scan.
func TestSemijoinValuesProbeOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 200
	orders := map[string]func(i int) int64{
		"ascending":   func(i int) int64 { return int64(i / 3) },
		"descending":  func(i int) int64 { return int64((n - i) / 3) },
		"shuffled":    func(int) int64 { return rng.Int63n(80) },
		"long-repeat": func(i int) int64 { return int64(i / 50 * 7) },
	}
	sets := map[string][]int64{
		"empty":  nil,
		"below":  {-9, -5, -1},
		"above":  {1000, 2000},
		"single": {7},
		"random": nil,
	}
	for v := range int64(80) {
		if rng.Intn(3) == 0 {
			sets["random"] = append(sets["random"], v)
		}
	}
	for oname, value := range orders {
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(i), value(i)}
		}
		for sname, vals := range sets {
			in := map[int64]bool{}
			for _, v := range vals {
				in[v] = true
			}
			d := disk(16, 4)
			r := FromTuples(d, tuple.Schema{0, 1}, rows)
			d.ResetStats()
			got, stop, err := SemijoinValues(r, 1, vals, 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []tuple.Tuple
			for _, row := range rows {
				if in[row[1]] {
					want = append(want, row)
				}
			}
			b := int64(d.B())
			wantStats := extmem.Stats{Reads: (n + b - 1) / b, Writes: (int64(len(want)) + b - 1) / b}
			if s := d.Stats(); s.Reads != wantStats.Reads || s.Writes != wantStats.Writes || stop != n {
				t.Errorf("%s/%s: stats %v, stop %d; want reads=%d writes=%d, stop %d", oname, sname, s, stop, wantStats.Reads, wantStats.Writes, n)
			}
			if gotRows := Contents(got); !slices.EqualFunc(gotRows, want, slices.Equal) {
				t.Errorf("%s/%s: got %v, want %v", oname, sname, gotRows, want)
			}
		}
	}
}

func TestProject(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1, 2}, []tuple.Tuple{
		{1, 5, 9}, {1, 5, 8}, {2, 5, 7},
	})
	p, err := Project(r, []tuple.Attr{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("project len = %d, want 2: %v", p.Len(), Contents(p))
	}
	if !p.Schema().Equal(tuple.Schema{0, 1}) {
		t.Fatalf("schema = %v", p.Schema())
	}
}

func TestDistinctValues(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{3}, {1}, {3}, {2}, {1}})
	vals, err := DistinctValues(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestEqualHelper(t *testing.T) {
	d := disk(16, 4)
	a := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}})
	b := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {1}})
	c := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {3}})
	if !Equal(a, b) {
		t.Fatal("order-insensitive equality failed")
	}
	if Equal(a, c) {
		t.Fatal("different contents reported equal")
	}
}

// Property: Heavy partitions the relation; semijoin+anti partition too.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		m := 3 + rng.Intn(5)
		d := extmem.NewDisk(extmem.Config{M: m, B: 1})
		n := rng.Intn(60)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(rng.Intn(8)), int64(i)}
		}
		r := FromTuples(d, tuple.Schema{0, 1}, rows)
		s, err := r.SortBy(0)
		if err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		heavy, light, err := s.Heavy(0)
		if err != nil {
			t.Fatal(err)
		}
		// A linear pass: at most the scan plus a second read of the light
		// tuples, and each light tuple written once (B = 1).
		if cost := d.Stats().Sub(before); cost.Reads > 2*s.Blocks() || cost.Writes > int64(light.Len()) {
			t.Fatalf("split of %d tuples (%d light) charged %+v", n, light.Len(), cost)
		}
		totalHeavy := 0
		for _, g := range heavy {
			if g.Rel.Len() < m {
				t.Fatalf("heavy group of size %d < M=%d", g.Rel.Len(), m)
			}
			totalHeavy += g.Rel.Len()
		}
		err = light.Groups(0, func(g Group) error {
			if g.Rel.Len() >= m {
				t.Fatalf("light group of size %d >= M=%d", g.Rel.Len(), m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if totalHeavy+light.Len() != n {
			t.Fatalf("split loses tuples: %d + %d != %d", totalHeavy, light.Len(), n)
		}
	}
}
