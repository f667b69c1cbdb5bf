package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// assertNoLeaks panics (failing the test loudly wherever it is called from)
// if the run grew the goroutine count.
// Goroutines are given a grace window to drain: the runtime may briefly keep
// exited goroutines visible to NumGoroutine.
func assertNoLeaks(goroutinesBefore int, ctx string) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("leak check (%s): %d goroutines alive, started with %d",
				ctx, runtime.NumGoroutine(), goroutinesBefore))
		}
		time.Sleep(time.Millisecond)
	}
}

// failureBuilder is a workload with several branches and enough I/O for
// mid-run fault triggers to land inside execution.
func failureBuilder(seed int64) builder {
	return func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(seed))
		return workload.LineUniform(d, rng, 4, 80, 8)
	}
}

// TestTransientFaultsBitIdentical is the chaos contract at the core layer:
// on the file backend under a device-layer plan, every transient syscall
// fault is retried and every torn frame repaired below the seam, so the
// Result, the emitted rows and their order, the final disk stats and the
// transfer ledger are bit-identical to the fault-free file run — at several
// fault rates.
func TestTransientFaultsBitIdentical(t *testing.T) {
	build := failureBuilder(21)
	opts := Options{Strategy: StrategyExhaustive, NoPrune: true}
	wantRes, wantRows, wantDisk, wantXfer, err := engineRunBackend(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.01, 0.05, 0.2} {
		plan := &extmem.FaultPlan{Seed: 7, Layer: extmem.LayerDevice, Rate: rate, TornRate: rate / 2}
		gotRes, gotRows, gotDisk, gotXfer, err := engineRunBackendFaults(build, opts, plan)
		if err != nil {
			t.Fatalf("rate=%v: %v", rate, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("rate=%v: Result = %+v, want %+v", rate, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("rate=%v: emitted rows differ", rate)
		}
		if gotDisk != wantDisk || gotXfer != wantXfer {
			t.Errorf("rate=%v: disk stats = %+v / %+v, want %+v / %+v", rate, gotDisk, gotXfer, wantDisk, wantXfer)
		}
	}
}

// Device faults under pruning must preserve the pruning-pinned fields of the
// sim run: emitted rows, execution stats, winning policy.
func TestTransientFaultsPrunedPinnedFields(t *testing.T) {
	build := failureBuilder(22)
	wantRes, wantRows, _, err := engineRunOpts(build, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	plan := &extmem.FaultPlan{Seed: 3, Layer: extmem.LayerDevice, Rate: 0.1, TornRate: 0.05}
	gotRes, gotRows, _, _, err := engineRunBackendFaults(build, Options{Strategy: StrategyExhaustive}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Emitted != wantRes.Emitted || gotRes.ExecStats != wantRes.ExecStats ||
		!reflect.DeepEqual(gotRes.Policy, wantRes.Policy) {
		t.Errorf("pinned fields differ: got %+v, want %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("emitted rows differ under faults")
	}
}

// A permanent fault aborts the run with a typed *extmem.FaultError, with no
// leaked goroutines (checked inside engineRunFaults).
func TestPermanentFaultTypedError(t *testing.T) {
	plan := &extmem.FaultPlan{PermanentAt: 40}
	_, _, _, err := engineRunFaults(failureBuilder(23), Options{Strategy: StrategyExhaustive}, plan)
	var fe *extmem.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *extmem.FaultError", err)
	}
}

// Cancellation mid-branch unwinds exploration with an error wrapping
// ErrCancelled and zero leaked goroutines.
func TestCancelMidBranchUnwinds(t *testing.T) {
	plan := &extmem.FaultPlan{CancelAt: 60}
	_, _, _, err := engineRunFaults(failureBuilder(24), Options{Strategy: StrategyExhaustive}, plan)
	if !errors.Is(err, extmem.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// Faults on the single-branch strategies and the line dispatcher also
// surface as typed errors, not panics.
func TestFaultOnNonExhaustivePaths(t *testing.T) {
	build := failureBuilder(25)
	for _, s := range []Strategy{StrategyFirst, StrategySmallest} {
		plan := &extmem.FaultPlan{PermanentAt: 30}
		_, _, _, err := engineRunFaults(build, Options{Strategy: s}, plan)
		var fe *extmem.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("strategy %v: err = %v, want *extmem.FaultError", s, err)
		}
	}

	d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
	rng := rand.New(rand.NewSource(26))
	g, in := workload.LineUniform(d, rng, 3, 80, 8)
	d.SetFaultPlan(&extmem.FaultPlan{PermanentAt: 30})
	_, err := RunLine(g, in, func(tuple.Assignment) {}, Options{})
	var fe *extmem.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("RunLine: err = %v, want *extmem.FaultError", err)
	}
}

// A disk that survived an abort is clean: disarming the plan and re-running
// on the same disk reproduces the fault-free result, proving no budget
// watermark, phase, recorder, or peak-watch state leaked out of the abort.
func TestDiskReusableAfterAbort(t *testing.T) {
	for _, plan := range []*extmem.FaultPlan{
		{PermanentAt: 50},
		{CancelAt: 50},
	} {
		d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
		rng := rand.New(rand.NewSource(27))
		g, in := workload.LineUniform(d, rng, 3, 70, 7)

		ref := extmem.NewDisk(extmem.Config{M: 64, B: 4})
		rngRef := rand.New(rand.NewSource(27))
		gRef, inRef := workload.LineUniform(ref, rngRef, 3, 70, 7)
		wantRes, err := Run(gRef, inRef, func(tuple.Assignment) {}, Options{Strategy: StrategyExhaustive})
		if err != nil {
			t.Fatal(err)
		}

		d.SetFaultPlan(plan)
		if _, err := Run(g, in, func(tuple.Assignment) {}, Options{Strategy: StrategyExhaustive}); err == nil {
			t.Fatalf("plan %+v: expected an abort error", plan)
		}
		d.SetFaultPlan(nil)
		base := d.Stats()
		gotRes, err := Run(g, in, func(tuple.Assignment) {}, Options{Strategy: StrategyExhaustive})
		if err != nil {
			t.Fatalf("plan %+v: rerun after abort: %v", plan, err)
		}
		if gotRes.Emitted != wantRes.Emitted || gotRes.ExecStats != wantRes.ExecStats {
			t.Errorf("plan %+v: rerun result %+v, want %+v", plan, gotRes, wantRes)
		}
		if got := d.Stats().Sub(base); got.IOs() != wantRes.TotalStats.IOs() {
			t.Errorf("plan %+v: rerun charged %d I/Os, fault-free run charges %d",
				plan, got.IOs(), wantRes.TotalStats.IOs())
		}
	}
}
