package extmem

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// chargeMix performs a deterministic mix of writes and reads: it writes n
// blocks of tuples and scans them back, charging 2n block I/Os in total.
func chargeMix(d *Disk, n int) {
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < n*d.B(); i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	r := f.NewReader()
	for r.Next() != nil {
	}
}

func TestFaultPlanDisabledIsFree(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetFaultPlan(&FaultPlan{}) // zero plan injects nothing
	if d.faults != nil {
		t.Fatal("disabled plan armed an injector")
	}
	chargeMix(d, 5)
	if got := d.Stats().IOs(); got != 10 {
		t.Fatalf("IOs = %d, want 10", got)
	}
	if d.FaultStats().Any() {
		t.Fatalf("fault stats on disabled plan: %v", d.FaultStats())
	}
}

// Inline retries must leave the main accounting bit-identical to the
// fault-free run; only the side-channel moves.
func TestInlineRetryKeepsStatsIdentical(t *testing.T) {
	base := testDisk(t, 100, 10)
	chargeMix(base, 20)

	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{Seed: 7, Rate: 0.5})
	d.WithPhase("mix", func() { chargeMix(d, 20) })
	if d.Stats() != base.Stats() {
		t.Fatalf("stats diverged under inline retries: %v vs %v", d.Stats(), base.Stats())
	}
	fs := d.FaultStats()
	if fs.Transient == 0 || fs.Retries != fs.Transient {
		t.Fatalf("want every transient cleared by an inline retry, got %v", fs)
	}
	if fs.RetryReads+fs.RetryWrites != fs.Retries || fs.BackoffIOs != fs.Retries {
		t.Fatalf("inline retries must bill one transfer and one block-time each: %v", fs)
	}
	if fs.Permanent != 0 {
		t.Fatalf("unexpected permanent fault: %v", fs)
	}
}

// The fault schedule is a pure function of (plan, charge sequence).
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func(seed int64) FaultStats {
		d := testDisk(t, 100, 10)
		d.SetFaultPlan(&FaultPlan{Seed: seed, Rate: 0.3})
		chargeMix(d, 30)
		return d.FaultStats()
	}
	if a, b := run(42), run(42); a != b {
		t.Fatalf("same plan, different schedule: %v vs %v", a, b)
	}
	a, b := run(1), run(2)
	if a == b && a.Transient == 0 {
		t.Fatalf("rate 0.3 over 60 charges fired nothing: %v", a)
	}
}

// Transient faults under an open outer recorder and a phase are retried
// inline: the stats, the recorded tape and the phase breakdown all match the
// fault-free run, with the re-issued transfers billed to the side-channel.
func TestOperatorBoundaryRollbackBitIdentical(t *testing.T) {
	runOnce := func(plan *FaultPlan) (*Disk, ChargeTape) {
		d := testDisk(t, 100, 10)
		d.EnablePhases()
		if plan != nil {
			d.SetFaultPlan(plan)
		}
		chargeMix(d, 3) // ambient work before the tape
		d.StartTape()   // an outer recorder spanning the faulted work
		d.WithPhase("op", func() { chargeMix(d, 10) })
		return d, d.StopTape()
	}
	base, baseTape := runOnce(nil)
	d, tape := runOnce(&FaultPlan{Seed: 3, Rate: 0.4})

	if d.Stats() != base.Stats() {
		t.Fatalf("stats diverged: %v vs %v", d.Stats(), base.Stats())
	}
	if len(tape.Segments) != len(baseTape.Segments) {
		t.Fatalf("outer tape shape diverged: %v vs %v", tape.Segments, baseTape.Segments)
	}
	for i := range tape.Segments {
		if tape.Segments[i] != baseTape.Segments[i] {
			t.Fatalf("outer tape segment %d diverged: %+v vs %+v", i, tape.Segments[i], baseTape.Segments[i])
		}
	}
	if !reflect.DeepEqual(d.PhaseStats(), base.PhaseStats()) {
		t.Fatalf("phases diverged: %v vs %v", d.PhaseStats(), base.PhaseStats())
	}
	fs := d.FaultStats()
	if fs.Transient == 0 {
		t.Fatalf("rate 0.4 over 26 blocks never faulted: %v", fs)
	}
	if fs.Retries != fs.Transient || fs.RetryReads+fs.RetryWrites != fs.Retries || fs.BackoffIOs != fs.Retries {
		t.Fatalf("retry cost not billed once per transient: %v", fs)
	}
}

// Even at rate 1.0 every retry terminates: each charge faults once, its
// re-issue passes, and the stats match the fault-free run.
func TestOperatorBoundaryTerminatesAtRateOne(t *testing.T) {
	base := testDisk(t, 100, 10)
	chargeMix(base, 5)
	d := testDisk(t, 100, 10)
	d.SetFaultPlan(&FaultPlan{Seed: 1, Rate: 1.0})
	chargeMix(d, 5)
	if d.Stats() != base.Stats() {
		t.Fatalf("stats diverged: %v vs %v", d.Stats(), base.Stats())
	}
	fs := d.FaultStats()
	if fs.Transient != 10 || fs.Retries != 10 || fs.BackoffIOs != 10 || fs.Permanent != 0 {
		t.Fatalf("want exactly 10 retries for the 10 charges, got %v", fs)
	}
}

// A model-layer transient never escalates, however many fire; only
// PermanentAt yields a typed permanent FaultError.
func TestOperatorBoundaryEscalatesToPermanent(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetFaultPlan(&FaultPlan{Seed: 1, Rate: 1.0})
	if pruned, err := d.CatchAbort(func() error { chargeMix(d, 5); return nil }); pruned || err != nil {
		t.Fatalf("rate 1.0 aborted: pruned=%v err=%v", pruned, err)
	}
	d.SetFaultPlan(&FaultPlan{Seed: 1, Rate: 1.0, PermanentAt: 3})
	pruned, err := d.CatchAbort(func() error { chargeMix(d, 5); return nil })
	if pruned {
		t.Fatal("permanent fault misreported as a budget prune")
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FaultError", err)
	}
	if fs := d.FaultStats(); fs.Permanent != 1 || fs.Retries != fs.Transient {
		t.Fatalf("permanent telemetry: %v", fs)
	}
}

func TestPermanentFaultUnwindsWithTypedError(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{PermanentAt: 5})
	d.SetChargeBudget(1000)
	pruned, err := d.CatchAbort(func() error {
		d.StartTape()
		d.WithPhase("doomed", func() { chargeMix(d, 10) })
		d.StopTape()
		return nil
	})
	if pruned {
		t.Fatal("permanent fault misreported as a budget prune")
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Index != 4 {
		t.Fatalf("err = %v, want FaultError at index 4", err)
	}
	// Charges before the fault are durable; the faulted one was never applied.
	if got := d.Stats().IOs(); got != 4 {
		t.Fatalf("IOs = %d, want the 4 pre-fault charges", got)
	}
	// Transient bookkeeping restored, budget disarmed.
	if len(d.recorders) != 0 {
		t.Fatalf("leaked %d recorders", len(d.recorders))
	}
	if d.phase != "" || d.phaseDepth != 0 {
		t.Fatalf("leaked phase %q/%d", d.phase, d.phaseDepth)
	}
	if _, armed := d.ChargeBudget(); armed {
		t.Fatal("CatchAbort left the charge budget armed")
	}
	if d.FaultStats().Permanent != 1 {
		t.Fatalf("telemetry: %v", d.FaultStats())
	}
	// The disk remains usable: a clean re-run charges normally.
	chargeMix(d, 2)
	if got := d.Stats().IOs(); got != 8 {
		t.Fatalf("post-abort IOs = %d, want 8", got)
	}
}

func TestPhaseTargetedFaults(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{Seed: 5, Rate: 1.0, Phase: "target"})
	chargeMix(d, 5) // ambient: must not fault
	if fs := d.FaultStats(); fs.Transient != 0 {
		t.Fatalf("ambient charges faulted despite phase filter: %v", fs)
	}
	d.WithPhase("target", func() { chargeMix(d, 2) })
	if fs := d.FaultStats(); fs.Transient != 4 {
		t.Fatalf("want all 4 target-phase charges to fault, got %v", fs)
	}
}

func TestCancelAtUnwinds(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetFaultPlan(&FaultPlan{CancelAt: 6})
	pruned, err := d.CatchAbort(func() error {
		chargeMix(d, 20)
		return nil
	})
	if pruned || !errors.Is(err, ErrCancelled) {
		t.Fatalf("pruned=%v err=%v, want ErrCancelled", pruned, err)
	}
	if got := d.Stats().IOs(); got != 5 {
		t.Fatalf("IOs = %d, want 5 charges before the cancellation", got)
	}
	if d.Cancelled() == nil {
		t.Fatal("disk not marked cancelled")
	}
}

// Cancel wraps its cause under ErrCancelled, stops the very next charge, and
// keeps the first cause when called again.
func TestCancelWrapsFirstCause(t *testing.T) {
	d := testDisk(t, 100, 10)
	cause := errors.New("operator asked")
	d.Cancel(cause)
	pruned, err := d.CatchAbort(func() error {
		chargeMix(d, 1)
		return nil
	})
	if pruned || !errors.Is(err, ErrCancelled) || !errors.Is(err, cause) {
		t.Fatalf("abort = (%v, %v), want cancellation wrapping the cause", pruned, err)
	}
	if got := d.Stats().IOs(); got != 0 {
		t.Fatalf("charged %d I/Os after cancellation", got)
	}
	d.Cancel(errors.New("latecomer"))
	if !errors.Is(d.Cancelled(), cause) {
		t.Fatalf("cancellation cause overwritten: %v", d.Cancelled())
	}
}

func TestCancelSkipsSuspendedCharges(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.Cancel(nil)
	resume := d.Suspend()
	chargeMix(d, 3) // suspended: free, and must not trip the cancellation
	resume()
	if got := d.Stats().IOs(); got != 0 {
		t.Fatalf("suspended charges counted: %d", got)
	}
}

func TestWatchContextCancelsAndStops(t *testing.T) {
	before := runtime.NumGoroutine()
	d := testDisk(t, 100, 10)
	ctx, cancel := context.WithCancel(context.Background())
	stop := d.WatchContext(ctx)
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for d.Cancelled() == nil {
		if time.Now().After(deadline) {
			t.Fatal("watcher never marked the disk cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(d.Cancelled(), ErrCancelled) || !errors.Is(d.Cancelled(), context.Canceled) {
		t.Fatalf("cancellation error = %v", d.Cancelled())
	}
	stop()

	// A never-done context installs no watcher; stop is a no-op.
	d2 := testDisk(t, 100, 10)
	stop2 := d2.WatchContext(context.Background())
	stop2()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

func TestCatchAbortBudgetCompatible(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.SetChargeBudget(7)
	pruned, err := d.CatchAbort(func() error {
		writeBlocks(d, 20)
		return nil
	})
	if !pruned || err != nil {
		t.Fatalf("budget abort = (%v, %v), want (true, nil)", pruned, err)
	}
	if got := d.Stats().IOs(); got != 7 {
		t.Fatalf("IOs = %d, want the watermark 7", got)
	}
	if _, armed := d.ChargeBudget(); armed {
		t.Fatal("CatchAbort left the budget armed after a prune")
	}
}

func TestCatchAbortPropagatesUnknownPanicsAndErrors(t *testing.T) {
	d := testDisk(t, 100, 10)
	sentinel := errors.New("plain failure")
	if _, err := d.CatchAbort(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("plain error = %v", err)
	}
	defer func() {
		if r := recover(); r == nil || r.(string) != "unrelated" {
			t.Fatalf("foreign panic = %v, want propagated", r)
		}
	}()
	d.CatchAbort(func() error { panic("unrelated") })
}

// An armed fault plan that never fires must leave every counter untouched —
// the "compiled in but disabled" guarantee backing the byte-identical bench
// tables.
func TestArmedButSilentPlanIsInvisible(t *testing.T) {
	base := testDisk(t, 100, 10)
	base.EnablePhases()
	chargeMix(base, 10)

	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{Seed: 1, Rate: 0, PermanentAt: 10_000, CancelAt: 0})
	chargeMix(d, 10)
	if d.Stats() != base.Stats() {
		t.Fatalf("silent plan changed stats: %v vs %v", d.Stats(), base.Stats())
	}
	if d.FaultStats().Any() {
		t.Fatalf("silent plan recorded activity: %v", d.FaultStats())
	}
}
