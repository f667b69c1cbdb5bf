package extmem

import (
	"errors"
	"testing"
	"testing/quick"
)

func testDisk(t *testing.T, m, b int) *Disk {
	t.Helper()
	return NewDisk(Config{M: m, B: b})
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{M: 100, B: 10}, true},
		{Config{M: 30, B: 10}, true},  // fan-in boundary: M/B-1 = 2
		{Config{M: 29, B: 10}, false}, // fan-in 1: merge would over-subscribe M
		{Config{M: 10, B: 10}, false},
		{Config{M: 3, B: 1}, true},
		{Config{M: 0, B: 10}, false},
		{Config{M: 100, B: 0}, false},
		{Config{M: 5, B: 10}, false},
		{Config{M: -1, B: 1}, false},
		{Config{M: 1, B: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestNewDiskPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDisk with invalid config did not panic")
		}
	}()
	NewDisk(Config{M: 0, B: 0})
}

func TestWriterChargesPerBlock(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(2)
	w := f.NewWriter()
	for i := 0; i < 25; i++ {
		w.Append([]int64{int64(i), int64(i * 2)})
	}
	w.Close()
	if got := d.Stats().Writes; got != 3 { // 10+10+5 -> 3 blocks
		t.Errorf("writes = %d, want 3", got)
	}
	if f.Len() != 25 {
		t.Errorf("len = %d, want 25", f.Len())
	}
	// Close is idempotent.
	w.Close()
	if got := d.Stats().Writes; got != 3 {
		t.Errorf("writes after double close = %d, want 3", got)
	}
}

func TestWriterExactBlocksNoExtraFlush(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < 30; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	if got := d.Stats().Writes; got != 3 {
		t.Errorf("writes = %d, want 3", got)
	}
}

func TestReaderChargesPerBlock(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < 95; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	d.ResetStats()

	r := f.NewReader()
	n := 0
	for tup := r.Next(); tup != nil; tup = r.Next() {
		if tup[0] != int64(n) {
			t.Fatalf("tuple %d = %d, want %d", n, tup[0], n)
		}
		n++
	}
	if n != 95 {
		t.Fatalf("read %d tuples, want 95", n)
	}
	if got := d.Stats().Reads; got != 10 {
		t.Errorf("reads = %d, want 10", got)
	}
}

func TestRangeReaderChargesContainingBlocks(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < 100; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	d.ResetStats()

	// Range [5, 25): spans blocks 0,1,2 -> 3 reads.
	r := f.NewRangeReader(5, 20)
	n := 0
	for tup := r.Next(); tup != nil; tup = r.Next() {
		if tup[0] != int64(5+n) {
			t.Fatalf("tuple = %d, want %d", tup[0], 5+n)
		}
		n++
	}
	if n != 20 {
		t.Fatalf("read %d tuples, want 20", n)
	}
	if got := d.Stats().Reads; got != 3 {
		t.Errorf("reads = %d, want 3", got)
	}
}

// Reader.Cells charges nothing and is the image every Block window is a
// slice of, from the reader's position to its range's end.
func TestReaderCellsAliasBlockWindows(t *testing.T) {
	for _, arity := range []int{0, 2} {
		d := testDisk(t, 12, 4)
		f := d.NewFile(arity)
		w := f.NewWriter()
		for i := 0; i < 10; i++ {
			w.Append([]int64{int64(i), int64(-i)}[:arity])
		}
		w.Close()
		d.ResetStats()

		slot := f.Slot()
		r := f.NewRangeReader(3, 6)
		img := r.Cells()
		if len(img) != 6*slot {
			t.Fatalf("arity %d: len(Cells) = %d, want %d", arity, len(img), 6*slot)
		}
		if got := d.Stats(); got != (Stats{}) {
			t.Fatalf("arity %d: Cells charged %v", arity, got)
		}
		for r.Remaining() > 0 {
			cells, n := r.Block()
			if &cells[0] != &img[(r.Pos()-3)*slot] {
				t.Fatalf("arity %d: window at %d is not a slice of Cells", arity, r.Pos())
			}
			r.Skip(n)
			if rest := r.Cells(); len(rest) != r.Remaining()*slot {
				t.Fatalf("arity %d: Cells after Skip has %d cells, want %d", arity, len(rest), r.Remaining()*slot)
			}
		}
		if got := d.Stats().Reads; got != 3 {
			t.Errorf("arity %d: reads = %d, want 3", arity, got)
		}
	}
}

func TestRangeReaderBounds(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds NewRangeReader did not panic")
		}
	}()
	f.NewRangeReader(0, 2)
}

// TestPeekDoesNotConsume checks that Block looks at the current block window
// without consuming it: repeated calls return the same tuples and charge the
// block once, and only Skip or Next move on.
func TestPeekDoesNotConsume(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{7})
	w.Append([]int64{8})
	w.Close()
	d.ResetStats()

	r := f.NewReader()
	if p, n := r.Block(); n != 2 || p[0] != 7 || p[1] != 8 {
		t.Fatalf("block = %v (%d tuples), want [7 8]", p, n)
	}
	if p, n := r.Block(); n != 2 || p[0] != 7 {
		t.Fatalf("second block = %v (%d tuples), want [7 8]", p, n)
	}
	if n := r.Next(); n[0] != 7 {
		t.Fatalf("next = %d, want 7", n[0])
	}
	if p, n := r.Block(); n != 1 || p[0] != 8 {
		t.Fatalf("block after next = %v (%d tuples), want [8]", p, n)
	}
	r.Skip(1)
	if r.Next() != nil {
		t.Fatal("expected nil at end")
	}
	if p, n := r.Block(); p != nil || n != 0 {
		t.Fatalf("block at end = %v (%d tuples), want nil", p, n)
	}
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("reads = %d, want 1 (both tuples in one block)", got)
	}
}

func TestReadBlockRandomAccess(t *testing.T) {
	d := testDisk(t, 100, 4)
	f := d.NewFile(2)
	w := f.NewWriter()
	for i := 0; i < 10; i++ {
		w.Append([]int64{int64(i), int64(-i)})
	}
	w.Close()
	d.ResetStats()

	blk := f.ReadBlock(2) // tuples 8, 9
	if len(blk) != 2 {
		t.Fatalf("block len = %d, want 2", len(blk))
	}
	if blk[0][0] != 8 || blk[1][0] != 9 {
		t.Fatalf("block contents wrong: %v", blk)
	}
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("reads = %d, want 1", got)
	}
}

func TestArityZeroFile(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(0)
	w := f.NewWriter()
	for i := 0; i < 15; i++ {
		w.Append(nil)
	}
	w.Close()
	if f.Len() != 15 {
		t.Fatalf("len = %d, want 15", f.Len())
	}
	r := f.NewReader()
	n := 0
	for tup := r.Next(); tup != nil; tup = r.Next() {
		if len(tup) != 0 {
			t.Fatalf("arity-0 tuple has len %d", len(tup))
		}
		n++
	}
	if n != 15 {
		t.Fatalf("read %d, want 15", n)
	}
}

func TestWriterArityMismatchPanics(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(2)
	w := f.NewWriter()
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	w.Append([]int64{1})
}

func TestMemoryAccounting(t *testing.T) {
	d := NewDisk(Config{M: 10, B: 2, MemFactor: 2}) // cap 20
	if err := d.Grab(15); err != nil {
		t.Fatalf("Grab(15): %v", err)
	}
	if err := d.Grab(10); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("Grab over cap: err=%v, want ErrMemoryExceeded", err)
	}
	d.Release(25)
	if d.MemInUse() != 0 {
		t.Fatalf("in use = %d, want 0", d.MemInUse())
	}
	if d.Stats().MemHiWater != 25 {
		t.Fatalf("hiwater = %d, want 25", d.Stats().MemHiWater)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	d := testDisk(t, 10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	d.Release(1)
}

func TestSuspendStopsCharging(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	restore := d.Suspend()
	w := f.NewWriter()
	for i := 0; i < 50; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	restore()
	if got := d.Stats().IOs(); got != 0 {
		t.Errorf("IOs under suspend = %d, want 0", got)
	}
	d.ResetStats()
	r := f.NewReader()
	for r.Next() != nil {
	}
	if got := d.Stats().Reads; got != 5 {
		t.Errorf("reads after restore = %d, want 5", got)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Reads: 3, Writes: 4, MemHiWater: 7}
	b := Stats{Reads: 1, Writes: 2, MemHiWater: 9}
	sum := a.Add(b)
	if sum.Reads != 4 || sum.Writes != 6 || sum.MemHiWater != 9 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(a)
	if diff.Reads != 1 || diff.Writes != 2 {
		t.Errorf("Sub = %+v", diff)
	}
	if sum.IOs() != 10 {
		t.Errorf("IOs = %d, want 10", sum.IOs())
	}
}

// Property: for any number of appended tuples n >= 1 and block size b,
// writer charges ceil(n/b) writes and a full scan charges ceil(n/b) reads.
func TestScanIOCountProperty(t *testing.T) {
	f := func(nRaw uint16, bRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		b := int(bRaw)%64 + 1
		d := NewDisk(Config{M: 100000, B: b})
		file := d.NewFile(1)
		w := file.NewWriter()
		for i := 0; i < n; i++ {
			w.Append([]int64{int64(i)})
		}
		w.Close()
		want := int64((n + b - 1) / b)
		if d.Stats().Writes != want {
			return false
		}
		d.ResetStats()
		r := file.NewReader()
		cnt := 0
		for tup := r.Next(); tup != nil; tup = r.Next() {
			if tup[0] != int64(cnt) {
				return false
			}
			cnt++
		}
		return cnt == n && d.Stats().Reads == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAcrossWriters(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < 7; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	w2 := f.NewWriter()
	for i := 7; i < 12; i++ {
		w2.Append([]int64{int64(i)})
	}
	w2.Close()
	if f.Len() != 12 {
		t.Fatalf("len = %d, want 12", f.Len())
	}
	r := f.NewReader()
	for i := 0; i < 12; i++ {
		tup := r.Next()
		if tup == nil || tup[0] != int64(i) {
			t.Fatalf("tuple %d = %v", i, tup)
		}
	}
}

func TestTruncate(t *testing.T) {
	d := testDisk(t, 100, 10)
	f := d.NewFile(3)
	w := f.NewWriter()
	w.Append([]int64{1, 2, 3})
	w.Close()
	f.Truncate()
	if f.Len() != 0 {
		t.Fatalf("len after truncate = %d", f.Len())
	}
}

func TestBlocksCount(t *testing.T) {
	d := testDisk(t, 100, 8)
	f := d.NewFile(1)
	if f.Blocks() != 0 {
		t.Fatalf("empty file blocks = %d", f.Blocks())
	}
	w := f.NewWriter()
	for i := 0; i < 17; i++ {
		w.Append([]int64{0})
	}
	w.Close()
	if f.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", f.Blocks())
	}
}

// Sub keeps the receiver's hi-water mark (a cumulative quantity), and Add
// takes the max from either side — the two laws the exhaustive planner's
// stat assembly depends on.
func TestStatsSubKeepsReceiverHiWater(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, MemHiWater: 42}
	b := Stats{Reads: 4, Writes: 1, MemHiWater: 99}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 4 {
		t.Errorf("Sub I/O = %+v", d)
	}
	if d.MemHiWater != 42 {
		t.Errorf("Sub hi-water = %d, want receiver's 42", d.MemHiWater)
	}
	if x, y := a.Add(b).MemHiWater, b.Add(a).MemHiWater; x != 99 || y != 99 {
		t.Errorf("Add hi-water not a symmetric max: %d / %d", x, y)
	}
}

// CloneTo onto the same disk — the operator memo's replay path — shares the
// original's tuples and content identity, and a scan of the clone charges the
// disk exactly like a scan of the original.
func TestCloneToSameDiskSharesContent(t *testing.T) {
	d := NewDisk(Config{M: 8, B: 2})
	f := d.NewFile(2)
	w := f.NewWriter()
	for i := 0; i < 6; i++ {
		w.Append([]int64{int64(i), int64(i)})
	}
	w.Close()
	wrote := d.Stats()

	cf := f.CloneTo(d)
	if cf.Len() != f.Len() || cf.Arity() != f.Arity() {
		t.Fatalf("clone shape %d/%d, want %d/%d", cf.Len(), cf.Arity(), f.Len(), f.Arity())
	}
	if cf.ContentID() != f.ContentID() || cf.Version() != f.Version() {
		t.Errorf("clone identity (%d,%d), want (%d,%d)", cf.ContentID(), cf.Version(), f.ContentID(), f.Version())
	}
	if d.Stats() != wrote {
		t.Errorf("CloneTo charged I/O: %+v, want %+v", d.Stats(), wrote)
	}
	r := cf.NewReader()
	n := 0
	for t := r.Next(); t != nil; t = r.Next() {
		if t[0] != int64(n) {
			break
		}
		n++
	}
	if n != 6 {
		t.Fatalf("clone scan saw %d tuples, want 6", n)
	}
	if got := d.Stats().Reads - wrote.Reads; got != 3 {
		t.Errorf("clone scan reads = %d, want 3", got)
	}
}

// A stray append through a clone must not clobber the original's storage:
// CloneTo pins the shared slice's capacity so growth reallocates.
func TestCloneToAppendDoesNotCorruptOriginal(t *testing.T) {
	d := NewDisk(Config{M: 8, B: 2})
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	cf := f.CloneTo(d)
	cw := cf.NewWriter()
	cw.Append([]int64{99})
	cw.Close()
	if f.Len() != 1 || f.At(0)[0] != 1 {
		t.Errorf("original mutated: len=%d first=%v", f.Len(), f.At(0))
	}
	if cf.Len() != 2 || cf.At(1)[0] != 99 {
		t.Errorf("clone append lost: len=%d", cf.Len())
	}
}
