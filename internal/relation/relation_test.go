package relation

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
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
	heavy, chunks, _ := loadBy(t, s)
	if len(heavy) != 2 {
		t.Fatalf("heavy groups = %d, want 2", len(heavy))
	}
	if heavy[0].Value != 10 || heavy[0].Rel.Len() != 6 {
		t.Fatalf("heavy[0] = %v len %d", heavy[0].Value, heavy[0].Rel.Len())
	}
	if heavy[1].Value != 30 || heavy[1].Rel.Len() != 4 {
		t.Fatalf("heavy[1] = %v len %d", heavy[1].Value, heavy[1].Rel.Len())
	}
	if !heavy[0].Rel.SortedByAttr(0) {
		t.Fatal("heavy group lost sortedness")
	}
	if len(chunks) != 1 || !slices.Equal(chunks[0].vals, []int64{20}) || len(chunks[0].rows) != 2 {
		t.Fatalf("light chunks = %+v, want one chunk of value 20's 2 rows", chunks)
	}
}

// loaded is one chunk a load by value handed to fn, copied out of it.
type loaded struct {
	vals   []int64
	starts []int
	rows   []tuple.Tuple
}

func (l loaded) equal(o loaded) bool {
	return slices.Equal(l.vals, o.vals) && slices.Equal(l.starts, o.starts) && slices.EqualFunc(l.rows, o.rows, slices.Equal)
}

// loadBy runs LoadChunksBy(0) on r from freshly reset stats and returns the
// heavy groups, the chunks fn was handed, and what the load charged,
// memory hi-water included. It fails t if the load leaks memory.
func loadBy(t *testing.T, r *Relation) ([]Group, []loaded, extmem.Stats) {
	t.Helper()
	d := r.Disk()
	d.ResetStats()
	var chunks []loaded
	heavy, err := r.LoadChunksBy(0, func(c *Chunk) error {
		l := loaded{vals: slices.Clone(c.Values), starts: slices.Clone(c.Starts)}
		for _, tp := range c.Rows() {
			l.rows = append(l.rows, tuple.Clone(tp))
		}
		chunks = append(chunks, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
	return heavy, chunks, d.Stats()
}

// splitOracle is the map oracle for a load by value over rows sorted by
// column 0, the chunks a split into a file of the light tuples followed by a
// load of that file gave: the values with at least m rows, in order, and
// the other rows cut into chunks at each new value once a chunk holds at
// least m rows.
func splitOracle(rows []tuple.Tuple, m int) (heavy []int64, chunks []loaded) {
	count := map[int64]int{}
	for _, tp := range rows {
		count[tp[0]]++
	}
	var cur loaded
	cut := func() {
		cur.starts = append(cur.starts, len(cur.rows))
		chunks = append(chunks, cur)
		cur = loaded{}
	}
	for i, tp := range rows {
		v := tp[0]
		first := i == 0 || rows[i-1][0] != v
		if count[v] >= m {
			if first {
				heavy = append(heavy, v)
			}
			continue
		}
		if first {
			if len(cur.rows) >= m {
				cut()
			}
			cur.vals = append(cur.vals, v)
			cur.starts = append(cur.starts, len(cur.rows))
		}
		cur.rows = append(cur.rows, tp)
	}
	if len(cur.rows) > 0 {
		cut()
	}
	return heavy, chunks
}

// checkSplit loads r, the view of the tuples view at offset lo of a file
// on a disk of the given M and B, and checks it against splitOracle: the
// heavy values in order, each as exactly its tuples; the same chunks, with
// the same values, offsets and rows; and the exact charge, the view's block
// windows once, no write, and memory for the largest chunk's filled length,
// none with no light value. It then loads the same view twice on a disk with
// an operator memo (see checkReplayedLoad).
// It returns the load's heavy groups and chunks.
func checkSplit(t *testing.T, r *Relation, view []tuple.Tuple, lo, m, b int) ([]Group, []loaded) {
	t.Helper()
	heavy, chunks, cost := loadBy(t, r)
	checkReplayedLoad(t, r, heavy, chunks, cost)
	wantHeavy, wantChunks := splitOracle(view, m)
	want := extmem.Stats{Reads: windows(lo, len(view), b)}
	for _, c := range wantChunks {
		want.MemHiWater = max(want.MemHiWater, len(c.rows))
	}
	if cost != want {
		t.Fatalf("M=%d B=%d view [%d,+%d): charged %+v, want %+v", m, b, lo, len(view), cost, want)
	}
	count := map[int64]int{}
	for _, tp := range view {
		count[tp[0]]++
	}
	var gotHeavy []int64
	for _, g := range heavy {
		gotHeavy = append(gotHeavy, g.Value)
		for _, tp := range Contents(g.Rel) {
			if tp[0] != g.Value {
				t.Fatalf("heavy group %d holds %v", g.Value, tp)
			}
		}
		if g.Rel.Len() != count[g.Value] || !g.Rel.SortedByAttr(0) {
			t.Fatalf("heavy group %d has %d tuples (sorted %v), want %d", g.Value, g.Rel.Len(), g.Rel.SortedByAttr(0), count[g.Value])
		}
	}
	if !slices.Equal(gotHeavy, wantHeavy) {
		t.Fatalf("M=%d B=%d view [%d,+%d): heavy values %v, want %v", m, b, lo, len(view), gotHeavy, wantHeavy)
	}
	if !slices.EqualFunc(chunks, wantChunks, loaded.equal) {
		t.Fatalf("M=%d B=%d view [%d,+%d): chunks %+v, want %+v", m, b, lo, len(view), chunks, wantChunks)
	}
	return heavy, chunks
}

// memoCopy returns r's view over a copy of r's file on a fresh disk of the
// same M and B that carries an operator memo.
func memoCopy(r *Relation) *Relation {
	d := extmem.NewDisk(r.Disk().Config())
	opcache.Enable(d)
	rows := make([]tuple.Tuple, r.file.Len())
	for i := range rows {
		rows[i] = r.file.At(i)
	}
	f := FromTuples(d, r.schema, rows)
	return &Relation{schema: r.schema, file: f.file, off: r.off, n: r.n, sortCols: r.sortCols}
}

// checkReplayedLoad loads a copy of r on a disk with an operator memo twice,
// and checks both loads against r's load, which found heavy and chunks at
// cost: the same heavy groups, the same chunks handed to fn and the same
// Stats, hi-water included. The second load replays every read of the
// first: it performs none.
func checkReplayedLoad(t *testing.T, r *Relation, heavy []Group, chunks []loaded, cost extmem.Stats) {
	t.Helper()
	mr := memoCopy(r)
	for pass := range 2 {
		mHeavy, mChunks, mCost := loadBy(t, mr)
		if mCost != cost {
			t.Fatalf("memo load %d charged %+v, want %+v", pass, mCost, cost)
		}
		if !slices.EqualFunc(mChunks, chunks, loaded.equal) {
			t.Fatalf("memo load %d handed fn chunks %+v, want %+v", pass, mChunks, chunks)
		}
		if !slices.EqualFunc(mHeavy, heavy, func(a, b Group) bool {
			return a.Value == b.Value && a.Rel.off == b.Rel.off && a.Rel.n == b.Rel.n
		}) {
			t.Fatalf("memo load %d found heavy groups %+v, want %+v", pass, mHeavy, heavy)
		}
		x := mr.Disk().Transfers()
		if pass == 1 && (x.Reads != 0 || x.ReplayedReads != cost.Reads) {
			t.Fatalf("the repeated load performed %d reads and replayed %d, want 0 and %d", x.Reads, x.ReplayedReads, cost.Reads)
		}
	}
}

// TestHeavyChargesOneScan pins what the load by value charges: the view's
// block windows once, no write, and memory for the largest chunk's filled
// length, with no heavy value, with some, and with only heavy values, where
// it grabs no memory. Every view starts mid-block.
func TestHeavyChargesOneScan(t *testing.T) {
	d := disk(6, 2) // M = 6: groups with >= 6 tuples are heavy
	sorted := func(vals ...int64) *Relation {
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Tuple{v, int64(i)}
		}
		return FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1})
	}

	// N < M: five tuples of one value, one chunk of 5 over blocks 0..2.
	short := sorted(7, 7, 7, 7, 7, 7).View(1, 5)
	if heavy, chunks, cost := loadBy(t, short); len(heavy) != 0 || len(chunks) != 1 || cost != (extmem.Stats{Reads: 3, MemHiWater: 5}) {
		t.Fatalf("N < M: %d heavy groups, %d chunks, charged %+v", len(heavy), len(chunks), cost)
	}

	// Nothing heavy: tuples [3, 17) span blocks 1..8, read once, none
	// written, in chunks of 7, 6 and 1 tuples.
	var pairs []int64
	for v := range int64(10) {
		pairs = append(pairs, v, v)
	}
	flat := sorted(pairs...).View(3, 14)
	if heavy, chunks, cost := loadBy(t, flat); len(heavy) != 0 || len(chunks) != 3 || cost != (extmem.Stats{Reads: 8, MemHiWater: 7}) {
		t.Fatalf("no heavy value: %d heavy groups, %d chunks, charged %+v", len(heavy), len(chunks), cost)
	}

	// Heavy groups: the view is tuples [1, 23), with 2 at [1, 8) and 6 at
	// [12, 18) heavy. The pass reads blocks 0..11 once and writes nothing.
	mixed := sorted(1, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 8, 8).View(1, 22)
	heavy, chunks, cost := loadBy(t, mixed)
	if cost != (extmem.Stats{Reads: 12, MemHiWater: 7}) {
		t.Fatalf("heavy groups: charged %+v, want 12 reads and the 7 tuples of the first chunk", cost)
	}
	if len(heavy) != 2 || heavy[0].Value != 2 || heavy[0].Rel.Len() != 7 || heavy[1].Value != 6 || heavy[1].Rel.Len() != 6 {
		t.Fatalf("heavy groups = %+v", heavy)
	}
	// 3, 4, 5 hold 4 tuples, so 7 joins their chunk across 6, and 8 opens
	// the next one.
	if len(chunks) != 2 || !slices.Equal(chunks[0].vals, []int64{3, 4, 5, 7}) || !slices.Equal(chunks[1].vals, []int64{8}) {
		t.Fatalf("light chunks = %+v, want values {3, 4, 5, 7} and {8}", chunks)
	}

	// Only heavy values: tuples [1, 14), blocks 0..6, and no memory.
	only := sorted(1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3).View(1, 13)
	if heavy, chunks, cost := loadBy(t, only); len(heavy) != 2 || len(chunks) != 0 || cost != (extmem.Stats{Reads: 7}) {
		t.Fatalf("only heavy values: %d heavy groups, %d chunks, charged %+v", len(heavy), len(chunks), cost)
	}
}

// TestLoadChunksByChunkComposition pins the chunks of a load by value to
// those of a split into a file of the light tuples followed by a load of
// that file, with a heavy value mid-chunk (the chunk is copied), at the
// view's start and at its end, on views that start mid-block.
func TestLoadChunksByChunkComposition(t *testing.T) {
	const m, b = 6, 2
	// 3 is heavy between 2 and 4, so the first chunk is copied around it;
	// 5 brings that chunk to M and 6 opens the next.
	mid := []int64{1, 2, 3, 3, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6}
	want := []loaded{
		{vals: []int64{1, 2, 4, 5}, starts: []int{0, 1, 2, 3, 6}},
		{vals: []int64{6}, starts: []int{0, 2}},
	}
	rowsOf := func(vals []int64) []tuple.Tuple {
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Tuple{v, int64(i)}
		}
		return rows
	}
	heavyVals, chunks := splitOracle(rowsOf(mid), m)
	if !slices.Equal(heavyVals, []int64{3}) || len(chunks) != len(want) {
		t.Fatalf("oracle: heavy %v, %d chunks", heavyVals, len(chunks))
	}
	for i, c := range chunks {
		if !slices.Equal(c.vals, want[i].vals) || !slices.Equal(c.starts, want[i].starts) {
			t.Fatalf("oracle chunk %d = %+v, want %+v", i, c, want[i])
		}
	}

	cases := map[string][]int64{
		"heavy mid-chunk": mid,
		"heavy at start":  {3, 3, 3, 3, 3, 3, 4, 5, 5, 6, 7, 7, 7, 8},
		"heavy at end":    {1, 2, 2, 4, 5, 5, 5, 6, 6, 9, 9, 9, 9, 9, 9},
		"heavy at both":   {0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 5, 6, 7, 9, 9, 9, 9, 9, 9},
		"no heavy":        {1, 1, 2, 2, 3, 3, 4, 5, 6, 6, 6, 7},
		"only heavy":      {1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2},
	}
	for name, vals := range cases {
		// Pad the file with a lower value so the views start at every offset
		// of a block.
		for pad := range b + 1 {
			d := disk(m, b)
			rows := rowsOf(append(make([]int64, pad), vals...))
			for i := range pad {
				rows[i][0] = -1
			}
			r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1}).View(pad, len(vals))
			t.Run(name, func(t *testing.T) { checkSplit(t, r, rows[pad:], pad, m, b) })
		}
	}
}

// TestReplayedLoadAbortsAtTheSameCharge arms a charge budget, a permanent
// model fault or a planned cancellation at each charge of a load by value,
// on a disk with the memo off and on a copy with it on, and loads the view
// three times: armed, in full, and armed again. With the memo on, the full
// load replays the steps the aborted one recorded and reads the rest for
// real, and the last load replays every step. Each load must abort at the
// same charge with the same error, or not at all, with the same Stats and
// after handing fn the same chunks, with the memo on and off.
func TestReplayedLoadAbortsAtTheSameCharge(t *testing.T) {
	const m, b = 6, 2
	vals := []int64{-1, 1, 2, 3, 3, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6, 7, 8, 8, 9, 9, 9, 9, 9, 9, 9, 10, 11, 11, 12}
	rows := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		rows[i] = tuple.Tuple{v, int64(i)}
	}
	view := func(d *extmem.Disk) *Relation {
		return FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1}).View(1, len(vals)-1)
	}
	plain := view(disk(m, b))
	_, want, full := loadBy(t, plain)
	arms := map[string]func(d *extmem.Disk, at int64){
		"budget":    func(d *extmem.Disk, at int64) { d.SetChargeBudget(at) },
		"fault":     func(d *extmem.Disk, at int64) { d.SetFaultPlan(&extmem.FaultPlan{PermanentAt: at}) },
		"cancelled": func(d *extmem.Disk, at int64) { d.SetFaultPlan(&extmem.FaultPlan{CancelAt: at}) },
	}
	// load loads r, armed to abort at its limit-th charge (never when 0),
	// and returns what it charged, the chunks fn saw, and whether and how it
	// aborted.
	load := func(r *Relation, arm func(*extmem.Disk, int64), limit int64) (extmem.Stats, []loaded, bool, error) {
		d := r.Disk()
		before := d.Stats()
		if limit > 0 {
			arm(d, before.IOs()+limit)
			defer func() {
				d.ClearChargeBudget()
				d.SetFaultPlan(nil)
			}()
		}
		var chunks []loaded
		pruned, err := d.CatchAbort(func() error {
			_, err := r.LoadChunksBy(0, func(c *Chunk) error {
				l := loaded{vals: slices.Clone(c.Values), starts: slices.Clone(c.Starts)}
				for _, tp := range c.Rows() {
					l.rows = append(l.rows, tuple.Clone(tp))
				}
				chunks = append(chunks, l)
				return nil
			})
			return err
		})
		if d.MemInUse() != 0 {
			t.Fatalf("limit %d: %d tuples held after the load", limit, d.MemInUse())
		}
		return d.Stats().Sub(before), chunks, pruned || err != nil, err
	}
	for name, arm := range arms {
		for limit := int64(1); limit <= full.Reads+1; limit++ {
			off, on := view(disk(m, b)), memoCopy(plain)
			for i, l := range []int64{limit, 0, limit} {
				performed := on.Disk().Transfers().Reads
				offCost, offChunks, offAborted, offErr := load(off, arm, l)
				onCost, onChunks, onAborted, onErr := load(on, arm, l)
				if offAborted != (l > 0 && l <= full.Reads) {
					t.Fatalf("%s at %d of a %d-read load: aborted %v", name, l, full.Reads, offAborted)
				}
				if !offAborted && !slices.EqualFunc(offChunks, want, loaded.equal) {
					t.Fatalf("%s at %d, load %d: chunks %+v, want %+v", name, limit, i, offChunks, want)
				}
				if onCost != offCost || !slices.EqualFunc(onChunks, offChunks, loaded.equal) || onAborted != offAborted || !reflect.DeepEqual(onErr, offErr) {
					t.Fatalf("%s at %d, load %d: memo on charged %+v after chunks %+v (%v), memo off %+v after %+v (%v)",
						name, limit, i, onCost, onChunks, onErr, offCost, offChunks, offErr)
				}
				if performed = on.Disk().Transfers().Reads - performed; i == 2 && performed != 0 {
					t.Fatalf("%s at %d: the last load performed %d reads, want every read replayed", name, limit, performed)
				}
			}
		}
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

// TestRefusedLoadHoldsNothing: a chunk load whose grab is refused returns
// ErrMemoryExceeded with the memory in use where the load found it.
func TestRefusedLoadHoldsNothing(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 8, B: 2, MemFactor: 2}) // cap 16
	rows := make([]tuple.Tuple, 20)
	for i := range rows {
		rows[i] = tuple.Tuple{int64(i)}
	}
	r := FromTuples(d, tuple.Schema{0}, rows).WithSortOrder([]int{0})
	loads := map[string]func(fn func(*Chunk) error) error{
		"LoadChunks": r.LoadChunks,
		"LoadChunksBy": func(fn func(*Chunk) error) error {
			_, err := r.LoadChunksBy(0, fn)
			return err
		},
	}
	for name, load := range loads {
		// With 10 tuples held, the first chunk, 8 tuples, is refused.
		if err := d.Grab(10); err != nil {
			t.Fatal(err)
		}
		err := load(func(*Chunk) error { t.Fatalf("%s: fn ran over the allowance", name); return nil })
		if !errors.Is(err, extmem.ErrMemoryExceeded) || d.MemInUse() != 10 {
			t.Fatalf("%s: first chunk: err %v with %d held, want ErrMemoryExceeded with 10", name, err, d.MemInUse())
		}
		d.Release(10)
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
	heavy, err := s.LoadChunksBy(0, func(c *Chunk) error {
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
	if len(heavy) != 0 {
		t.Fatalf("heavy groups %+v among groups below M", heavy)
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
// single-row groups, first and last groups, a chunk copied around the heavy
// value it straddles, and a nested load that takes its own arena.
func TestGroupRows(t *testing.T) {
	const m = 4
	d := disk(m, 1)
	var rows []tuple.Tuple
	// Chunks: {10, 20}, {30, 50, 60}, copied: 40 is heavy (3M rows).
	for _, g := range []struct{ v, n int }{{10, 1}, {20, 3}, {30, 1}, {40, 3 * m}, {50, 1}, {60, 2}} {
		for i := 0; i < g.n; i++ {
			rows = append(rows, tuple.Tuple{int64(g.v), int64(i)})
		}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1})
	var chunks int
	heavy, err := r.LoadChunksBy(0, func(c *Chunk) error {
		chunks++
		checkGroupRows(t, c)
		// A nested load takes its own arena; the outer chunk's offsets
		// must survive it.
		inner := 0
		if _, err := lightRel(d, 11, 1).LoadChunksBy(0, func(ic *Chunk) error {
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
	if chunks != 2 || len(heavy) != 1 || heavy[0].Value != 40 || heavy[0].Rel.Len() != 3*m {
		t.Fatalf("loaded %d chunks and heavy groups %+v; want 2 chunks and 40's %d rows", chunks, heavy, 3*m)
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
		if _, err := r.LoadChunksBy(0, collect); err != nil {
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
	if _, err := r.LoadChunksBy(0, outer); err != nil {
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
			if _, err := r.LoadChunksBy(0, func(c *Chunk) error { return nil }); err != nil {
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
		byValue := func(fn func(*Chunk) error) error {
			_, err := r.LoadChunksBy(0, fn)
			return err
		}
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
			if _, err := r.LoadChunksBy(0, skip); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024), allocs(16384); small != large {
		t.Fatalf("chunk loads allocate %v times over 1024 tuples but %v times over 16384", small, large)
	}
}

// TestLoadChunksByAllocsFlat guards the load by value's host memory: a load
// allocates the same at 4, 8 and 12 chunks, with no heavy value and with
// three, one of which makes the first chunk copy its cells.
func TestLoadChunksByAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const m, b = 16, 4
	allocs := func(chunks int, heavy bool) float64 {
		var rows []tuple.Tuple
		v := int64(0)
		group := func(n int) {
			for range n {
				rows = append(rows, tuple.Tuple{v, int64(len(rows))})
			}
			v++
		}
		if heavy {
			group(m)
		}
		for i := range chunks * m / 2 {
			group(2)
			if heavy && i == 1 {
				group(m + 1)
			}
		}
		if heavy {
			group(2 * m)
		}
		r := FromTuples(disk(m, b), tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1})
		return testing.AllocsPerRun(20, func() {
			if _, err := r.LoadChunksBy(0, func(*Chunk) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, heavy := range []bool{false, true} {
		if a4, a8, a12 := allocs(4, heavy), allocs(8, heavy), allocs(12, heavy); a4 != a8 || a8 != a12 {
			t.Fatalf("heavy values %v: a load allocates %v, %v and %v times at 4, 8 and 12 chunks", heavy, a4, a8, a12)
		}
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

// Property: a load by value partitions the view into its light chunks and
// its heavy groups, exactly as the map oracle does, and charges the view's
// block windows once, over random M, B and view offsets.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		b := 1 + rng.Intn(3)
		m := 3*b + rng.Intn(5)
		d := extmem.NewDisk(extmem.Config{M: m, B: b})
		n := rng.Intn(60)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(rng.Intn(8)), int64(i)}
		}
		SortTuples(rows)
		lo := rng.Intn(n + 1)
		cnt := rng.Intn(n - lo + 1)
		r := FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{0, 1}).View(lo, cnt)
		heavy, chunks := checkSplit(t, r, rows[lo:lo+cnt], lo, m, b)
		total := 0
		for _, g := range heavy {
			if g.Rel.Len() < m {
				t.Fatalf("heavy group of size %d < M=%d", g.Rel.Len(), m)
			}
			total += g.Rel.Len()
		}
		for _, c := range chunks {
			if len(c.rows) >= 2*m {
				t.Fatalf("chunk of %d rows, not below 2M=%d", len(c.rows), 2*m)
			}
			for i := range c.vals {
				if c.starts[i+1]-c.starts[i] >= m {
					t.Fatalf("light group of size %d >= M=%d", c.starts[i+1]-c.starts[i], m)
				}
			}
			total += len(c.rows)
		}
		if total != cnt {
			t.Fatalf("the load loses tuples: %d of %d", total, cnt)
		}
	}
}
