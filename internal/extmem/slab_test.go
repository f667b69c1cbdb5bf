package extmem

import (
	"slices"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

func slabDisk(t *testing.T) *Disk {
	t.Helper()
	d := testDisk(t, 64, 4)
	d.SetSlabs(true)
	return d
}

func appendN(w *Writer, n int, base int64) {
	for i := 0; i < n; i++ {
		w.Append([]int64{base + int64(i), -base - int64(i)})
	}
}

func wantRun(t *testing.T, f *File, n int, base int64) {
	t.Helper()
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := f.At(i); got[0] != base+int64(i) || got[1] != -base-int64(i) {
			t.Fatalf("tuple %d = %v, want [%d %d]", i, got, base+int64(i), -base-int64(i))
		}
	}
}

// TestSlabFilesKeepContents interleaves files that outgrow their carves, grow
// in place at the slab's tail, are presized with Grow, and are cloned and
// then appended to: every file must read back exactly what was written.
func TestSlabFilesKeepContents(t *testing.T) {
	d := slabDisk(t)
	a, b := d.NewFile(2), d.NewFile(2)
	wa, wb := a.NewWriter(), b.NewWriter()
	for i := 0; i < 50; i++ {
		appendN(wa, 7, int64(7*i))
		appendN(wb, 3, 1000+int64(3*i))
	}
	wa.Close()
	wb.Close()
	wantRun(t, a, 350, 0)
	wantRun(t, b, 150, 1000)

	// A lone writer grows in place at the slab's tail.
	c := d.NewFile(2)
	wc := c.NewWriter()
	appendN(wc, 500, 5000)
	wc.Close()
	wantRun(t, c, 500, 5000)

	// Grow carves the exact size; appends then fill it without regrowing.
	g := d.NewFile(2)
	g.Grow(40)
	if cap(g.Raw()) != 80 {
		t.Fatalf("Grow(40) capacity = %d cells, want 80", cap(g.Raw()))
	}
	wg := g.NewWriter()
	appendN(wg, 40, 9000)
	wg.Close()
	wantRun(t, g, 40, 9000)

	// A clone of the slab's last carve copies on write: appending to it
	// leaves the original's contents and later appends intact.
	e := d.NewFile(2)
	e.Grow(8)
	we := e.NewWriter()
	appendN(we, 8, 100)
	we.Close()
	cl := e.CloneTo(d)
	wcl := cl.NewWriter()
	appendN(wcl, 8, 108)
	wcl.Close()
	we = e.NewWriter()
	appendN(we, 4, 500)
	we.Close()
	wantRun(t, cl, 16, 100)
	if got := e.Raw(); !slices.Equal(got[:16], cl.Raw()[:16]) || got[16] != 500 {
		t.Fatalf("original after clone appends = %v", got)
	}
	if d.SlabBytes() == 0 {
		t.Fatal("a carving disk drew no slab")
	}
}

// TestCloseClipsReservation checks that Close hands back a Grow reservation
// the writer left more than half empty: to the slab when it is the latest
// carve, by a copy on the heap; a fuller file and a slab carve that is no
// longer the latest keep their capacity.
func TestCloseClipsReservation(t *testing.T) {
	write := func(f *File, n int) {
		w := f.NewWriter()
		appendN(w, n, 0)
		w.Close()
		wantRun(t, f, n, 0)
	}

	d := slabDisk(t)
	before := d.arena.used
	f := d.NewFile(2)
	f.Grow(100)
	write(f, 10)
	if c := cap(f.Raw()); c != 20 || d.arena.used != before+20 {
		t.Fatalf("latest carve: cap %d, slab used %d, want 20 and %d", c, d.arena.used, before+20)
	}
	g, h := d.NewFile(2), d.NewFile(2)
	g.Grow(100)
	h.Grow(1)
	write(g, 10)
	if c := cap(g.Raw()); c != 200 {
		t.Fatalf("earlier carve: cap %d, want 200 kept", c)
	}

	heap := testDisk(t, 64, 4)
	for _, n := range []int{10, 60} {
		f := heap.NewFile(2)
		f.Grow(100)
		reserved := cap(f.Raw())
		write(f, n)
		if c, l := cap(f.Raw()), len(f.Raw()); c > 2*l || n >= 50 && c != reserved {
			t.Fatalf("heap, %d of 100 written: cap %d, len %d, %d reserved", n, c, l, reserved)
		}
	}
}

// TestRecycleInvalidatesDisk checks that a recycled disk refuses charged
// reads and writes, new readers, new files and carves.
func TestRecycleInvalidatesDisk(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if s, ok := r.(string); !ok || !strings.Contains(s, "after Recycle") {
				t.Errorf("%s after Recycle: recovered %v, want a used-after-Recycle panic", name, r)
			}
		}()
		fn()
	}
	for _, slabs := range []bool{true, false} {
		d := testDisk(t, 64, 4)
		d.SetSlabs(slabs)
		f := d.NewFile(2)
		w := f.NewWriter()
		appendN(w, 8, 0)
		w.Close()
		rd := f.NewReader()
		w = f.NewWriter()
		d.Recycle()
		d.Recycle() // idempotent
		if d.SlabBytes() != 0 {
			t.Fatalf("SlabBytes after Recycle = %d, want 0", d.SlabBytes())
		}
		mustPanic("charged read", func() { rd.Next() })
		mustPanic("charged write", func() { appendN(w, 4, 0) })
		mustPanic("ReadBlock", func() { f.ReadBlock(0) })
		mustPanic("replayed charge", func() { d.ReplayIO(1, 1) })
		mustPanic("NewReader", func() { f.NewReader() })
		mustPanic("NewFile", func() { d.NewFile(2) })
		mustPanic("CloneTo", func() { f.CloneTo(d) })
		mustPanic("Carve", func() { d.Carve(4) })
	}
}

// TestWriterAppendAllocs guards the slab carving: with a warm pool, growing
// files by appending makes no heap allocation per growth step, so a run's
// allocations do not grow with the tuples it writes.
func TestWriterAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const b = 16
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(50, func() {
			d := NewDisk(Config{M: 256, B: b})
			d.SetSlabs(true)
			// Two interleaved files: neither stays at the slab's tail, so
			// each growth step copies into a new carve.
			f, g := d.NewFile(2), d.NewFile(2)
			wf, wg := f.NewWriter(), g.NewWriter()
			for i := 0; i < k*b; i++ {
				appendN(wf, 1, int64(i))
				appendN(wg, 1, int64(i))
			}
			wf.Close()
			wg.Close()
			d.Recycle()
		})
	}
	if a1, a16 := allocs(1), allocs(16); a1 != a16 {
		t.Fatalf("appending %d tuples allocates %v times but %d tuples %v times", b, a1, 16*b, a16)
	}
}

// TestAppendCellsAllocs guards the block copy: with a warm slab pool,
// appending blocks of cells makes no heap allocation per block, so the
// allocations of a run do not grow with the tuples it writes.
func TestAppendCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const b = 16
	block := make([]int64, 2*b)
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(50, func() {
			d := NewDisk(Config{M: 256, B: b})
			d.SetSlabs(true)
			f, g := d.NewFile(2), d.NewFile(2)
			wf, wg := f.NewWriter(), g.NewWriter()
			for range k {
				wf.AppendCells(block)
				wg.AppendCells(block[:b])
			}
			wf.Close()
			wg.Close()
			d.Recycle()
		})
	}
	if a1, a16 := allocs(1), allocs(16); a1 != a16 {
		t.Fatalf("appending %d blocks allocates %v times but %d blocks %v times", 1, a1, 16, a16)
	}
}
