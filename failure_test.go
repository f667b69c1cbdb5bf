package acyclicjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// chaosQuery builds an L3 query and a random instance big enough that fault
// triggers and cancellation land mid-execution.
func chaosQuery(t *testing.T, seed int64) (*Query, *Instance) {
	t.Helper()
	q, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "C", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inst := q.NewInstance()
	for i := 0; i < 150; i++ {
		inst.MustAdd("R1", rng.Intn(12), rng.Intn(12))
		inst.MustAdd("R2", rng.Intn(12), rng.Intn(12))
		inst.MustAdd("R3", rng.Intn(12), rng.Intn(12))
	}
	return q, inst
}

// smallOpts keeps the simulated machine small so runs charge plenty of I/Os.
func smallOpts() Options { return Options{Memory: 64, Block: 4} }

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	q, inst := chaosQuery(t, 1)
	want, err := Run(q, inst, smallOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), q, inst, smallOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Stats != want.Stats || got.PlanningStats != want.PlanningStats {
		t.Errorf("RunContext = %+v, Run = %+v", got, want)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	q, inst := chaosQuery(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, q, inst, smallOpts(), nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled run returned a result: %+v", res)
	}
}

// Cancelling from the emit callback aborts the run mid-execution: the error
// wraps ErrCancelled with the context cause, and the partial Result carries
// the rows emitted and I/Os charged before the abort.
func TestRunContextCancelMidRun(t *testing.T) {
	q, inst := chaosQuery(t, 3)
	ctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("operator pulled the plug")
	opts := smallOpts()
	var seen int64
	res, err := RunContext(ctx, q, inst, opts, func(Row) {
		seen++
		if seen == 3 {
			cancel(boom)
			// Give the context watcher a beat to latch the cancel mark; the
			// run then aborts at its next charged block I/O.
			time.Sleep(100 * time.Millisecond)
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the cancellation cause in the chain", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
	if res.Count < 3 {
		t.Errorf("partial Count = %d, want >= 3", res.Count)
	}
	if res.Stats.IOs == 0 {
		t.Errorf("partial Stats empty: %+v", res.Stats)
	}
}

// A transient-only fault plan leaves every published figure bit-identical
// to the fault-free run; the retries show up only on Result.Faults.
func TestRunTransientFaultsBitIdentical(t *testing.T) {
	q, inst := chaosQuery(t, 4)
	run := func(rate float64) *Result {
		// Every arm sets Options.Faults, which shadows
		// $ACYCLICJOIN_DEVFAULTRATE: the rate-0 arm is a fault-free
		// baseline even under device-fault injection from the environment.
		opts := smallOpts()
		opts.Faults = &FaultPlan{Seed: 11, Rate: rate}
		res, err := Run(q, inst, opts, nil)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		return res
	}
	want := run(0)
	if want.Faults.Any() {
		t.Fatalf("fault-free run reports faults: %+v", want.Faults)
	}
	for _, rate := range []float64{0.01, 0.1} {
		got := run(rate)
		if got.Count != want.Count || got.Stats != want.Stats ||
			got.PlanningStats != want.PlanningStats || got.Branches != want.Branches {
			t.Errorf("rate %v: result diverged: got %+v, want %+v", rate, got, want)
		}
		if !got.Faults.Any() {
			t.Errorf("rate %v: no fault telemetry recorded", rate)
		}
	}
}

func TestRunPermanentFaultTyped(t *testing.T) {
	q, inst := chaosQuery(t, 5)
	opts := smallOpts()
	opts.Faults = &FaultPlan{PermanentAt: 25}
	res, err := Run(q, inst, opts, nil)
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a *FaultError in the chain", err)
	}
	if res == nil || res.Faults.Permanent == 0 {
		t.Errorf("partial result missing fault telemetry: %+v", res)
	}
	if errors.Is(err, ErrCancelled) || errors.Is(err, ErrBudget) {
		t.Errorf("err matches more than one sentinel: %v", err)
	}
}

// MaxAttempts caps the file engine's re-issues of one failed syscall: a dead
// device exhausts exactly that many retries, then fails with ErrDevice.
func TestRunTransientEscalatesAtMaxAttempts(t *testing.T) {
	q, inst := chaosQuery(t, 6)
	opts := smallOpts()
	opts.Backend = "file"
	opts.Faults = &FaultPlan{Layer: LayerDevice, PermanentAt: 25, MaxAttempts: 2}
	res, err := Run(q, inst, opts, nil)
	if !errors.Is(err, ErrDevice) {
		t.Fatalf("err = %v, want ErrDevice", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the device error")
	}
	if res.Faults.Retries != 2 || res.Faults.Permanent != 1 {
		t.Errorf("want exactly 2 retries before the device is declared dead, got %+v", res.Faults)
	}
}

// CancelAt triggers inside the plan map onto the public ErrCancelled.
func TestRunPlanCancelTyped(t *testing.T) {
	q, inst := chaosQuery(t, 7)
	opts := smallOpts()
	opts.Faults = &FaultPlan{CancelAt: 25}
	res, err := Run(q, inst, opts, nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
}

// Ordinary validation errors match none of the failure sentinels.
func TestValidationErrorsUnclassified(t *testing.T) {
	q, _ := chaosQuery(t, 8)
	q2, inst2 := chaosQuery(t, 8)
	_ = q2
	_, err := Run(q, inst2, Options{}, nil)
	if err == nil {
		t.Fatal("foreign instance accepted")
	}
	errs := []error{err}
	// A plan setting a field of the other layer is a validation error too.
	for _, plan := range []*FaultPlan{
		{Rate: 0.1, TornRate: 0.1},
		{Rate: 0.1, MaxAttempts: 2},
		{NoSpaceAfter: 512},
		{Layer: LayerDevice, CancelAt: 5},
		{Layer: LayerDevice, Phase: "reduce"},
	} {
		q3, inst3 := chaosQuery(t, 8)
		res, perr := Run(q3, inst3, Options{Faults: plan}, nil)
		if perr == nil || res != nil {
			t.Errorf("layer-mismatched plan %+v accepted: res %v err %v", *plan, res, perr)
		}
		errs = append(errs, perr)
	}
	for _, err := range errs {
		for _, sentinel := range []error{ErrCancelled, ErrFault, ErrBudget, ErrInternal,
			ErrDevice, ErrNoSpace, ErrCorruption} {
			if errors.Is(err, sentinel) {
				t.Errorf("validation error %v matches %v", err, sentinel)
			}
		}
	}
}

// Faults during the full-reduction preprocessing (outside core's catchers)
// still come back as typed errors, never a panic across the API.
func TestRunFaultDuringReduction(t *testing.T) {
	q, inst := chaosQuery(t, 9)
	opts := smallOpts()
	// Trigger on the very first charged I/O: that is always reduction
	// (loading is suspended and free).
	opts.Faults = &FaultPlan{PermanentAt: 1}
	res, err := Run(q, inst, opts, nil)
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	if res == nil {
		t.Fatal("no partial result for a reduction-time fault")
	}
	if res.Count != 0 {
		t.Errorf("partial Count = %d, want 0 (failed before emission)", res.Count)
	}
}

func TestFaultStatsString(t *testing.T) {
	var fs FaultStats
	if fs.Any() {
		t.Error("zero FaultStats reports Any")
	}
	fs.Transient, fs.Retries = 3, 3
	if !fs.Any() || fs.String() == "" {
		t.Errorf("FaultStats = %q", fs.String())
	}
	_ = fmt.Sprintf("%v", fs)
}
