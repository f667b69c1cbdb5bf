package harness

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

// checkLeaks asserts the run left no extra goroutines (after a grace window
// for workers to finish exiting).
func checkLeaks(t *testing.T, goroutinesBefore int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Errorf("leak check: %d goroutines alive, started with %d",
				runtime.NumGoroutine(), goroutinesBefore)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Running the registry concurrently must reproduce the sequential report
// byte for byte: experiments are independent and RunAll returns outcomes in
// registry order regardless of completion order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry twice")
	}
	p := Params{M: 64, B: 8, Scale: 1, Seed: 42}
	render := func(os []Outcome) []string {
		out := make([]string, 0, len(os))
		for _, o := range os {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Exp.ID, o.Err)
			}
			out = append(out, o.Exp.ID+"\n"+o.Table.Render())
		}
		return out
	}
	seq := render(RunAll(All(), p, 1))
	par := render(RunAll(All(), p, 4))
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("outcome %d differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, seq[i], par[i])
		}
	}
}

func TestRunAllEmptyAndSingle(t *testing.T) {
	if got := RunAll(nil, Params{}, 4); len(got) != 0 {
		t.Errorf("RunAll(nil) = %d outcomes", len(got))
	}
	e := All()[0]
	got := RunAll([]*Experiment{e}, Params{M: 64, B: 8, Scale: 1, Seed: 42}, 4)
	if len(got) != 1 || got[0].Exp != e || got[0].Err != nil {
		t.Errorf("single-experiment RunAll = %+v", got)
	}
}

// Cancellation mid-branch on harness-style workloads: the run aborts with a
// typed error, with zero leaked goroutines.
func TestHarnessCancellationMidBranchNoLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
	g := randomAcyclicGraph(rng, 4)
	in := randomVerifyInstance(d, rng, g, 30, 4)
	d.SetFaultPlan(&extmem.FaultPlan{CancelAt: 50})
	goroutines := runtime.NumGoroutine()
	_, err := core.Run(g, in, func(tuple.Assignment) {}, core.Options{Strategy: core.StrategyExhaustive})
	checkLeaks(t, goroutines)
	if !errors.Is(err, extmem.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// A cancelled context skips not-yet-started experiments with a typed error
// in both the sequential and the parallel sweep.
func TestRunAllCtxCancelledSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := All()[:3]
	for _, par := range []int{1, 4} {
		for _, o := range RunAllCtx(ctx, exps, Params{M: 64, B: 8, Scale: 1, Seed: 42}, par) {
			if o.Err == nil || !errors.Is(o.Err, context.Canceled) {
				t.Errorf("par %d, %s: err = %v, want context.Canceled", par, o.Exp.ID, o.Err)
			}
			if o.Table != nil {
				t.Errorf("par %d, %s: skipped experiment produced a table", par, o.Exp.ID)
			}
		}
	}
}
