package extmem

import (
	"errors"
	"fmt"
	"testing"
)

// writeBlocks appends n full blocks of one-column tuples to a fresh file.
func writeBlocks(d *Disk, n int) {
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < n*d.B(); i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
}

func TestBudgetUnarmedByDefault(t *testing.T) {
	d := testDisk(t, 100, 10)
	if lim, armed := d.ChargeBudget(); armed || lim != 0 {
		t.Fatalf("fresh disk budget = (%d, %v), want unarmed", lim, armed)
	}
	writeBlocks(d, 5) // no panic
	if got := d.Stats().IOs(); got != 5 {
		t.Fatalf("IOs = %d, want 5", got)
	}
}

func TestBudgetAbortsExactlyAtWatermark(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(7)
	aborted, err := d.CatchBudgetExceeded(func() error {
		writeBlocks(d, 20)
		return nil
	})
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v, want aborted cleanly", aborted, err)
	}
	// The crossing charge is clamped: the total lands exactly on the
	// watermark no matter the charge granularity.
	if got := d.Stats().IOs(); got != 7 {
		t.Fatalf("IOs after abort = %d, want exactly 7", got)
	}
}

func TestBudgetClampOnMultiBlockCharge(t *testing.T) {
	// A single ReplayIO far larger than the remaining allowance must still
	// land the total exactly on the watermark.
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(5)
	aborted, err := d.CatchBudgetExceeded(func() error {
		d.ReplayIO(100, 100)
		return nil
	})
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	if got := d.Stats().IOs(); got != 5 {
		t.Fatalf("IOs = %d, want 5", got)
	}
}

func TestBudgetCompletesUnderLimit(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(50)
	aborted, err := d.CatchBudgetExceeded(func() error {
		writeBlocks(d, 3)
		return nil
	})
	if aborted || err != nil {
		t.Fatalf("aborted=%v err=%v, want clean completion", aborted, err)
	}
	if got := d.Stats().IOs(); got != 3 {
		t.Fatalf("IOs = %d, want 3", got)
	}
}

func TestBudgetTightenedBelowChargedAbortsNextCharge(t *testing.T) {
	d := testDisk(t, 100, 10)
	writeBlocks(d, 6)
	d.SetChargeBudget(3) // below the 6 already charged
	aborted, err := d.CatchBudgetExceeded(func() error {
		writeBlocks(d, 1)
		return nil
	})
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	// Zero allowance: the total must not move past what was already charged.
	if got := d.Stats().IOs(); got != 6 {
		t.Fatalf("IOs = %d, want 6 (no further charges admitted)", got)
	}
}

func TestBudgetSuspendedChargesBypass(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(2)
	restore := d.Suspend()
	writeBlocks(d, 10) // suspended: free, and must not trip the budget
	restore()
	if got := d.Stats().IOs(); got != 0 {
		t.Fatalf("suspended charges counted: %d", got)
	}
}

func TestCatchBudgetExceededRestoresDiskState(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.EnablePhases()
	if err := d.Grab(7); err != nil {
		t.Fatal(err)
	}
	d.StartTape()
	d.SetChargeBudget(1)
	aborted, err := d.CatchBudgetExceeded(func() error {
		d.WithPhase("inner", func() {
			d.StartTape() // a recorder the abort must pop
			if e := d.Grab(5); e != nil {
				t.Fatal(e)
			}
			writeBlocks(d, 5) // panics mid-phase, mid-tape, memory held
		})
		return nil
	})
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	if d.MemInUse() != 7 {
		t.Errorf("memInUse = %d, want 7 (abort-time grab rolled back)", d.MemInUse())
	}
	// Phase stack unwound: post-abort charges must not land in the phase the
	// abort interrupted. (The aborted run's own partial charge stays there —
	// durable accounting.)
	innerBefore := d.PhaseStats()["inner"].Writes
	d.ClearChargeBudget()
	writeBlocks(d, 1)
	if got := d.PhaseStats()["inner"].Writes; got != innerBefore {
		t.Errorf("post-abort charge landed in unwound phase: %d -> %d", innerBefore, got)
	}
	// Outer tape still recording, inner one discarded.
	tape := d.StopTape()
	if len(tape.Segments) == 0 {
		t.Error("outer tape lost by the abort")
	}
}

func TestCatchBudgetExceededPropagatesOtherPanics(t *testing.T) {
	d := testDisk(t, 100, 10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("foreign panic swallowed")
		}
		if fmt.Sprint(r) != "unrelated" {
			t.Fatalf("panic = %v", r)
		}
	}()
	d.CatchBudgetExceeded(func() error {
		panic("unrelated")
	})
}

func TestCatchBudgetExceededPassesErrors(t *testing.T) {
	d := testDisk(t, 100, 10)
	sentinel := errors.New("boom")
	aborted, err := d.CatchBudgetExceeded(func() error { return sentinel })
	if aborted || !errors.Is(err, sentinel) {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
}

func TestBudgetNegativeLimitClampsToZero(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(-5)
	aborted, _ := d.CatchBudgetExceeded(func() error {
		writeBlocks(d, 1)
		return nil
	})
	if !aborted {
		t.Fatal("zero budget admitted a charge")
	}
	if got := d.Stats().IOs(); got != 0 {
		t.Fatalf("IOs = %d, want 0", got)
	}
}

// StartMemPeak watches report the absolute peak of their own interval only,
// nest correctly, and survive a budget abort (CatchBudgetExceeded truncates
// watches opened inside the aborted run).
func TestStartMemPeakIntervalScoped(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 8})
	if err := d.Grab(10); err != nil {
		t.Fatal(err)
	}
	d.Release(10) // lifetime hi-water is now 10
	stop := d.StartMemPeak()
	if err := d.Grab(4); err != nil {
		t.Fatal(err)
	}
	inner := d.StartMemPeak()
	if err := d.Grab(3); err != nil {
		t.Fatal(err)
	}
	d.Release(3)
	if got := inner(); got != 7 {
		t.Errorf("inner peak = %d, want 7", got)
	}
	d.Release(4)
	if got := stop(); got != 7 {
		t.Errorf("outer peak = %d, want 7 (not the lifetime hi-water %d)", got, d.Stats().MemHiWater)
	}
	if d.Stats().MemHiWater != 10 {
		t.Errorf("lifetime hi-water = %d, want 10", d.Stats().MemHiWater)
	}

	// A watch opened inside an aborted budgeted run is discarded by the
	// abort; one opened outside keeps counting across it.
	outer := d.StartMemPeak()
	d.SetChargeBudget(d.Stats().IOs() + 1)
	aborted, err := d.CatchBudgetExceeded(func() error {
		d.StartMemPeak() // never stopped: the abort must clean it up
		if err := d.Grab(20); err != nil {
			return err
		}
		writeBlocks(d, 5)
		return nil
	})
	d.ClearChargeBudget()
	if err != nil || !aborted {
		t.Fatalf("aborted=%v err=%v, want clean abort", aborted, err)
	}
	if got := outer(); got != 20 {
		t.Errorf("outer watch across abort = %d, want 20", got)
	}
	if len(d.memPeaks) != 0 {
		t.Errorf("peak watch stack not empty after aborts: %d", len(d.memPeaks))
	}
}
