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

// The model layer retries nothing: a Rate armed on it directly (Validate
// rejects one) draws no fault, and a permanent fault restricted to a phase
// the run never enters never fires. The stats, the phase breakdown and the
// empty ledger all match the fault-free run.
func TestInlineRetryKeepsStatsIdentical(t *testing.T) {
	base := testDisk(t, 100, 10)
	base.EnablePhases()
	base.WithPhase("mix", func() { chargeMix(base, 20) })

	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{Seed: 7, Rate: 1, PermanentAt: 1, Phase: "elsewhere"})
	d.WithPhase("mix", func() { chargeMix(d, 20) })
	if d.Stats() != base.Stats() {
		t.Fatalf("stats diverged: %v vs %v", d.Stats(), base.Stats())
	}
	if !reflect.DeepEqual(d.PhaseStats(), base.PhaseStats()) {
		t.Fatalf("phases diverged: %v vs %v", d.PhaseStats(), base.PhaseStats())
	}
	if fs := d.FaultStats(); fs.Any() {
		t.Fatalf("the model layer recorded fault activity: %v", fs)
	}
	if err := (FaultPlan{Rate: 0.1}).Validate(); err == nil {
		t.Fatal("Validate accepted a model-layer Rate")
	}
}

// The fault schedule is a pure function of (plan, charge sequence): the same
// plan fails the same charge, and a later trigger fails a later one.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func(plan FaultPlan) (*FaultError, error, Stats) {
		d := testDisk(t, 100, 10)
		d.SetFaultPlan(&plan)
		_, err := d.CatchAbort(func() error { chargeMix(d, 30); return nil })
		var fe *FaultError
		errors.As(err, &fe)
		return fe, err, d.Stats()
	}
	a, _, as := run(FaultPlan{PermanentAt: 42})
	b, _, bs := run(FaultPlan{PermanentAt: 42})
	if a == nil || b == nil || *a != *b || as != bs {
		t.Fatalf("same plan, different schedule: %+v %v vs %+v %v", a, as, b, bs)
	}
	if a.Index != 41 || a.Op != opRead || as.IOs() != 41 {
		t.Fatalf("PermanentAt 42 failed %+v after %d I/Os, want read 41 after 41", a, as.IOs())
	}
	if c, _, _ := run(FaultPlan{PermanentAt: 43}); c == nil || c.Index != 42 {
		t.Fatalf("PermanentAt 43 failed %+v, want index 42", c)
	}
	_, err1, s1 := run(FaultPlan{CancelAt: 17})
	_, err2, s2 := run(FaultPlan{CancelAt: 17})
	if !errors.Is(err1, ErrCancelled) || !errors.Is(err2, ErrCancelled) || s1 != s2 || s1.IOs() != 16 {
		t.Fatalf("CancelAt 17: %v after %v, %v after %v; want a cancellation after 16 I/Os", err1, s1, err2, s2)
	}
}

// A permanent fault under an open outer recorder and a phase leaves nothing
// behind: once the plan is disarmed, the same work re-run on the aborted
// disk records the fault-free run's tape, stats and phase breakdown.
func TestOperatorBoundaryRollbackBitIdentical(t *testing.T) {
	work := func(d *Disk) ChargeTape {
		chargeMix(d, 3) // ambient work before the tape
		d.StartTape()   // an outer recorder spanning the faulted work
		d.WithPhase("op", func() { chargeMix(d, 10) })
		return d.StopTape()
	}
	base := testDisk(t, 100, 10)
	base.EnablePhases()
	baseTape := work(base)

	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{PermanentAt: 12, Phase: "op"})
	var fe *FaultError
	if _, err := d.CatchAbort(func() error { work(d); return nil }); !errors.As(err, &fe) || fe.Phase != "op" {
		t.Fatalf("abort = %v, want a FaultError in phase op", err)
	}
	d.SetFaultPlan(nil)
	d.ResetStats()
	d.ResetPhases()
	tape := work(d)
	if d.Stats() != base.Stats() {
		t.Fatalf("stats diverged: %v vs %v", d.Stats(), base.Stats())
	}
	if !reflect.DeepEqual(tape.Segments, baseTape.Segments) {
		t.Fatalf("outer tape diverged: %v vs %v", tape.Segments, baseTape.Segments)
	}
	if !reflect.DeepEqual(d.PhaseStats(), base.PhaseStats()) {
		t.Fatalf("phases diverged: %v vs %v", d.PhaseStats(), base.PhaseStats())
	}
}

// A permanent fault fires once: the same armed plan lets a re-run complete,
// and the ledger counts the one fault.
func TestOperatorBoundaryTerminatesAtRateOne(t *testing.T) {
	base := testDisk(t, 100, 10)
	chargeMix(base, 5)
	d := testDisk(t, 100, 10)
	d.SetFaultPlan(&FaultPlan{PermanentAt: 3})
	if _, err := d.CatchAbort(func() error { chargeMix(d, 5); return nil }); err == nil {
		t.Fatal("PermanentAt 3 never fired")
	}
	d.ResetStats()
	chargeMix(d, 5)
	if d.Stats() != base.Stats() {
		t.Fatalf("re-run stats diverged: %v vs %v", d.Stats(), base.Stats())
	}
	if fs := d.FaultStats(); fs != (FaultStats{Permanent: 1}) {
		t.Fatalf("want exactly one permanent fault, got %v", fs)
	}
}

// A Rate armed on the model layer never aborts, however high; only
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
	// The index runs on from the 10 charges of the first run, past the
	// trigger, so the very next charge fails.
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Index != 10 {
		t.Fatalf("err = %v, want FaultError at index 10", err)
	}
	if fs := d.FaultStats(); fs != (FaultStats{Permanent: 1}) {
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

// A phase-targeted permanent fault skips every charge outside its phase,
// even past PermanentAt, and fires at the first charge inside it.
func TestPhaseTargetedFaults(t *testing.T) {
	d := testDisk(t, 100, 10)
	d.EnablePhases()
	d.SetFaultPlan(&FaultPlan{PermanentAt: 2, Phase: "target"})
	chargeMix(d, 5) // ambient: must not fault
	if fs := d.FaultStats(); fs.Any() {
		t.Fatalf("ambient charges faulted despite phase filter: %v", fs)
	}
	_, err := d.CatchAbort(func() error {
		d.WithPhase("target", func() { chargeMix(d, 2) })
		return nil
	})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Index != 10 || fe.Phase != "target" {
		t.Fatalf("err = %v, want a FaultError at index 10 in phase target", err)
	}
	if fs := d.FaultStats(); fs.Permanent != 1 {
		t.Fatalf("want one target-phase fault, got %v", fs)
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
	d.SetFaultPlan(&FaultPlan{Seed: 1, PermanentAt: 10_000})
	chargeMix(d, 10)
	if d.Stats() != base.Stats() {
		t.Fatalf("silent plan changed stats: %v vs %v", d.Stats(), base.Stats())
	}
	if d.FaultStats().Any() {
		t.Fatalf("silent plan recorded activity: %v", d.FaultStats())
	}
}
