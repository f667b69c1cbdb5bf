package extmem_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
)

// scanCase is one block-scan oracle instance: a file of n tuples of the given
// arity on a disk with block size b, a range reader over [off, off+cnt), an op
// script driving it, and an optional charge budget (0 = none).
type scanCase struct {
	arity, b, n, off, cnt int
	script                []byte
	budget                int64
}

// scanOutcome is everything a scan leaves observable: the consumed tuples in
// order, the reader position (where an abort landed), and the disk's charge,
// seam and device telemetry.
type scanOutcome struct {
	tuples  []int64
	count   int
	pos     int
	aborted bool
	stats   extmem.Stats
	xfer    extmem.XferStats
	dev     extmem.DeviceStats
}

// newScanDisk returns a disk on the named backend and a function closing it.
func newScanDisk(t testing.TB, backend string, b int) (*extmem.Disk, func()) {
	t.Helper()
	cfg := extmem.Config{M: 3 * b, B: b}
	if backend == "sim" {
		return extmem.NewDisk(cfg), func() {}
	}
	eng, err := diskfile.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return extmem.NewDiskWithBackend(cfg, eng), func() { eng.Close() }
}

// runScan builds the case's file on a fresh disk and scans its range, either
// with Next alone (reference) or by following the op script: each op byte
// picks Next, Block, or Block followed by Skip of part of the window. The
// range is drained with Next after the script, so a complete scan consumes
// every tuple of the range.
func runScan(t testing.TB, backend string, c scanCase, reference bool) scanOutcome {
	d, done := newScanDisk(t, backend, c.b)
	defer done()
	f := d.NewFile(c.arity)
	w := f.NewWriter()
	row := make([]int64, c.arity)
	for i := range c.n {
		for j := range row {
			row[j] = int64(i*10 + j)
		}
		w.Append(row)
	}
	w.Close()
	d.ResetStats()

	var out scanOutcome
	take := func(t []int64) {
		out.tuples = append(out.tuples, t...)
		out.count++
	}
	rd := f.NewRangeReader(c.off, c.cnt)
	if c.budget > 0 {
		d.SetChargeBudget(c.budget)
	}
	aborted, err := d.CatchBudgetExceeded(func() error {
		if !reference {
			for _, op := range c.script {
				switch op % 3 {
				case 0:
					if tp := rd.Next(); tp != nil {
						take(tp)
					}
				case 1:
					rd.Block()
				case 2:
					cells, n := rd.Block()
					k := int(op/3) % (n + 1)
					for i := range k {
						take(cells[i*f.Slot() : i*f.Slot()+c.arity])
					}
					rd.Skip(k)
				}
			}
		}
		for tp := rd.Next(); tp != nil; tp = rd.Next() {
			take(tp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ClearChargeBudget()
	out.pos, out.aborted = rd.Pos(), aborted
	out.stats, out.xfer, out.dev = d.Stats(), d.Transfers(), d.DeviceStats()
	return out
}

// checkBlockScan compares the scripted scan against the Next-only reference.
func checkBlockScan(t testing.TB, backend string, c scanCase) {
	t.Helper()
	want := runScan(t, backend, c, true)
	got := runScan(t, backend, c, false)
	if got.count != want.count || !slices.Equal(got.tuples, want.tuples) {
		t.Fatalf("%s %+v: consumed %d tuples %v, want %d %v", backend, c, got.count, got.tuples, want.count, want.tuples)
	}
	if got.pos != want.pos || got.aborted != want.aborted {
		t.Fatalf("%s %+v: stopped at %d (aborted %v), want %d (aborted %v)", backend, c, got.pos, got.aborted, want.pos, want.aborted)
	}
	if got.stats != want.stats || got.xfer != want.xfer || got.dev != want.dev {
		t.Fatalf("%s %+v: telemetry\n got  %v %+v %+v\n want %v %+v %+v", backend, c,
			got.stats, got.xfer, got.dev, want.stats, want.xfer, want.dev)
	}
}

// TestReaderBlockMatchesNext is the block-scan property: any interleaving of
// Next, Block and Skip over a range reader consumes the same tuples and
// charges the same blocks, in the same order, as a scan by Next alone — on
// the simulator and on the file engine, with and without a charge budget
// (an abort lands on the same tuple).
func TestReaderBlockMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, backend := range []string{"sim", "file"} {
		for iter := range 300 {
			c := scanCase{arity: rng.Intn(4), b: 2 + rng.Intn(4), n: rng.Intn(40)}
			c.off = rng.Intn(c.n + 1)
			c.cnt = rng.Intn(c.n - c.off + 1)
			c.script = make([]byte, rng.Intn(30))
			rng.Read(c.script)
			if iter%3 == 0 {
				c.budget = 1 + rng.Int63n(int64(c.cnt/c.b+2))
			}
			checkBlockScan(t, backend, c)
		}
	}
}

// FuzzBlockScanOracle fuzzes the block-scan property against the Next-only
// reference: random file, block size, range, op script and budget.
func FuzzBlockScanOracle(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(17), uint8(2), uint8(13), uint8(0), []byte{1, 2, 0, 5, 8, 2})
	f.Add(uint8(0), uint8(4), uint8(9), uint8(0), uint8(9), uint8(2), []byte{2, 2, 2})
	f.Fuzz(func(t *testing.T, arity, b, n, off, cnt, budget uint8, script []byte) {
		c := scanCase{arity: int(arity % 4), b: 2 + int(b%4), n: int(n % 64), budget: int64(budget % 8)}
		c.off = int(off) % (c.n + 1)
		c.cnt = int(cnt) % (c.n - c.off + 1)
		if len(script) > 64 {
			script = script[:64]
		}
		c.script = script
		for _, backend := range []string{"sim", "file"} {
			checkBlockScan(t, backend, c)
		}
	})
}

// appendCase fills a file on a fresh disk: a prefix written and closed with
// Append (so the next writer starts on a partial block when the prefix is
// not block-aligned), then batch appended through a second writer either one
// Append per tuple or with AppendCells in the given chunk sizes. With clone
// set, the second writer appends to a shared clone of the prefix file, which
// must copy on write and leave the original untouched.
type appendCase struct {
	arity, b, prefix, batch int
	chunks                  []int
	slabs, clone            bool
	budget                  int64
}

type appendOutcome struct {
	data, orig []int64
	version    uint64
	fresh      bool // the written file took a content identity of its own
	aborted    bool
	stats      extmem.Stats
	xfer       extmem.XferStats
	dev        extmem.DeviceStats
}

func runAppend(t testing.TB, backend string, c appendCase, cells bool) appendOutcome {
	d, done := newScanDisk(t, backend, c.b)
	defer done()
	d.SetSlabs(c.slabs)
	orig := d.NewFile(c.arity)
	w := orig.NewWriter()
	row := make([]int64, c.arity)
	for i := range c.prefix {
		for j := range row {
			row[j] = int64(i*10 + j)
		}
		w.Append(row)
	}
	w.Close()
	f := orig
	if c.clone {
		f = orig.CloneTo(d)
	}
	slot := f.Slot()
	batch := make([]int64, c.batch*slot)
	for i := range c.batch {
		for j := range c.arity {
			batch[i*slot+j] = int64(-i*10 - j)
		}
	}
	if c.budget > 0 {
		d.SetChargeBudget(d.Stats().IOs() + c.budget)
	}
	var out appendOutcome
	w = f.NewWriter()
	aborted, err := d.CatchBudgetExceeded(func() error {
		if cells {
			rest := batch
			for _, k := range c.chunks {
				k = min(k*slot, len(rest))
				w.AppendCells(rest[:k])
				rest = rest[k:]
			}
			w.AppendCells(rest)
		} else {
			for i := range c.batch {
				w.Append(batch[i*slot : i*slot+c.arity])
			}
		}
		w.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ClearChargeBudget()
	out.aborted = aborted
	out.data = slices.Clone(f.Raw())
	out.orig = slices.Clone(orig.Raw())
	out.version = f.Version()
	out.fresh = f.ContentID() != orig.ContentID() || f == orig
	out.stats, out.xfer, out.dev = d.Stats(), d.Transfers(), d.DeviceStats()
	return out
}

// TestAppendCellsMatchesAppend checks AppendCells against one Append per
// tuple: same contents and version, same copy-on-write of a shared clone,
// same charges, seam transfers and device calls, and under a budget the same
// abort point — on the simulator, the file engine and a slab-carving disk.
func TestAppendCellsMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, backend := range []string{"sim", "file"} {
		for range 300 {
			c := appendCase{
				arity: rng.Intn(4), b: 2 + rng.Intn(4), prefix: rng.Intn(12), batch: rng.Intn(30),
				slabs: rng.Intn(2) == 0, clone: rng.Intn(2) == 0,
			}
			for range rng.Intn(6) {
				c.chunks = append(c.chunks, rng.Intn(8))
			}
			if rng.Intn(3) == 0 {
				c.budget = 1 + rng.Int63n(int64(c.batch/c.b+2))
			}
			want := runAppend(t, backend, c, false)
			got := runAppend(t, backend, c, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v:\n got  %+v\n want %+v", backend, c, got, want)
			}
		}
	}
}
