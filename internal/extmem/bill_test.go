package extmem_test

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
)

// billCase is one Reader.Bill oracle instance: a file of n tuples of the
// given arity on a disk with block size b, a range reader over [off, off+cnt)
// of which the first skip tuples are consumed through Block and Skip (touch
// then charges the next window without consuming it), and at most one abort
// armed for the rest of the scan.
type billCase struct {
	arity, b, n, off, cnt, skip int
	touch, phase                bool
	abort                       int   // 0 none, 1 charge budget, 2 PermanentAt, 3 CancelAt
	at                          int64 // the budget watermark or the I/O number the fault fires at
}

// billOutcome is what the scan leaves observable, and mid the seam ledger
// and device telemetry from before the rest of the range was scanned.
type billOutcome struct {
	stats   extmem.Stats
	phases  map[string]extmem.Stats
	tape    extmem.ChargeTape
	xfer    extmem.XferStats
	dev     extmem.DeviceStats
	midXfer extmem.XferStats
	midDev  extmem.DeviceStats
	pruned  bool
	err     string
}

// runBill builds the case's file on a fresh disk, consumes the prefix, and
// scans the rest of the range either by Bill or by a Block/Skip loop.
func runBill(t testing.TB, backend string, c billCase, bill bool) billOutcome {
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
	d.EnablePhases()
	switch c.abort {
	case 1:
		d.SetChargeBudget(c.at)
	case 2:
		d.SetFaultPlan(&extmem.FaultPlan{PermanentAt: c.at})
	case 3:
		d.SetFaultPlan(&extmem.FaultPlan{CancelAt: c.at})
	}

	var out billOutcome
	started := false
	rd := f.NewRangeReader(c.off, c.cnt)
	scan := func() {
		for k := c.skip; k > 0; {
			_, n := rd.Block()
			if n == 0 {
				break
			}
			rd.Skip(min(k, n))
			k -= min(k, n)
		}
		if c.touch {
			rd.Block()
		}
		out.midXfer, out.midDev, started = d.Transfers(), d.DeviceStats(), true
		d.StartTape()
		if bill {
			rd.Bill()
		} else {
			for _, n := rd.Block(); n > 0; _, n = rd.Block() {
				rd.Skip(n)
			}
		}
		out.tape = d.StopTape()
		if rd.Remaining() != 0 {
			t.Fatalf("%s %+v: %d tuples left after the scan (bill %v)", backend, c, rd.Remaining(), bill)
		}
	}
	pruned, err := d.CatchAbort(func() error {
		if c.phase {
			d.WithPhase("sort", scan)
		} else {
			scan()
		}
		return nil
	})
	if !started { // aborted within the prefix
		out.midXfer, out.midDev = d.Transfers(), d.DeviceStats()
	}
	out.pruned = pruned
	if err != nil {
		out.err = err.Error()
	}
	out.stats, out.phases = d.Stats(), d.PhaseStats()
	out.xfer, out.dev = d.Transfers(), d.DeviceStats()
	return out
}

// checkBill compares Bill with the Block/Skip loop it stands for: the same
// Stats, phase stats, charge tape and abort (a fault's error names its I/O
// number), with the loop's performed reads booked as unread instead and no
// device call made.
func checkBill(t testing.TB, backend string, c billCase) {
	t.Helper()
	want := runBill(t, backend, c, false)
	got := runBill(t, backend, c, true)
	if got.stats != want.stats || !reflect.DeepEqual(got.phases, want.phases) ||
		!reflect.DeepEqual(got.tape, want.tape) || got.pruned != want.pruned || got.err != want.err {
		t.Fatalf("%s %+v: Bill charged\n %v %v %+v pruned=%v err=%q\nwant\n %v %v %+v pruned=%v err=%q", backend, c,
			got.stats, got.phases, got.tape, got.pruned, got.err,
			want.stats, want.phases, want.tape, want.pruned, want.err)
	}
	moved := want.xfer
	moved.UnreadReads += moved.Reads - want.midXfer.Reads
	moved.Reads = want.midXfer.Reads
	if got.midXfer != want.midXfer || got.xfer != moved {
		t.Fatalf("%s %+v: ledger %+v, want %+v (the loop's %+v with its reads unread)", backend, c, got.xfer, moved, want.xfer)
	}
	if got.dev != got.midDev {
		t.Fatalf("%s %+v: Bill reached the device: %+v, before %+v", backend, c, got.dev, got.midDev)
	}
	if s := got.xfer; got.stats.Reads != s.TotalReads() || got.stats.Writes != s.TotalWrites() {
		t.Fatalf("%s %+v: Stats %v off the ledger %+v", backend, c, got.stats, s)
	}
}

// newBillCase derives a case from raw draws, keeping every field in range.
func newBillCase(arity, b, n, off, cnt, skip, mode, at uint8) billCase {
	c := billCase{arity: int(arity % 4), b: 2 + int(b%4), n: int(n % 64)}
	c.off = int(off) % (c.n + 1)
	c.cnt = int(cnt) % (c.n - c.off + 1)
	c.skip = int(skip) % (c.cnt + 1)
	c.abort = int(mode % 4)
	c.touch, c.phase = mode&4 != 0, mode&8 != 0
	c.at = 1 + int64(at%24)
	return c
}

// TestReaderBillMatchesBlockLoop is the Bill property on random cases, on
// the simulator and on the file engine.
func TestReaderBillMatchesBlockLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	draw := func() uint8 { return uint8(rng.Intn(256)) }
	for _, backend := range []string{"sim", "file"} {
		for range 400 {
			checkBill(t, backend, newBillCase(draw(), draw(), draw(), draw(), draw(), draw(), draw(), draw()))
		}
	}
}

// FuzzReaderBillOracle fuzzes Bill against the Block/Skip loop: random block
// size, range, partly consumed window, and an armed budget or model fault.
func FuzzReaderBillOracle(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(40), uint8(3), uint8(30), uint8(5), uint8(4), uint8(0))
	f.Add(uint8(1), uint8(0), uint8(33), uint8(1), uint8(31), uint8(2), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, arity, b, n, off, cnt, skip, mode, at uint8) {
		c := newBillCase(arity, b, n, off, cnt, skip, mode, at)
		for _, backend := range []string{"sim", "file"} {
			checkBill(t, backend, c)
		}
	})
}
