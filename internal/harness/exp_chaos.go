package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

func init() {
	Register(&Experiment{
		ID:       "E26",
		Artifact: "failure model: chaos sweep of the fault-injecting disk (implementation artifact)",
		Title:    "Chaos: transient faults retried bit-identically; permanent faults and cancellation typed",
		Run:      runE26,
	})
}

// chaosRates and chaosWorkers are the sweep grid: every combination of a
// transient fault rate and a worker count must reproduce the fault-free run
// bit for bit.
var (
	chaosRates   = []float64{0.02, 0.05, 0.2}
	chaosWorkers = []int{0, 2, 4}
)

// chaosArm is one evaluation of memo workload w under plan (nil = fault
// free) at the given parallelism. It returns the core Result, the run's
// emitted-row fingerprint (an order-sensitive FNV hash of every emitted
// assignment), the row count, the disk's fault telemetry, and the error.
// The plan is armed after the instance is loaded, so loading never faults;
// the leak registry is asserted empty on every path.
func chaosArm(p Params, w int, plan *extmem.FaultPlan, par int) (*core.Result, uint64, int64, extmem.FaultStats, error) {
	d := newDisk(p)
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	restore := d.Suspend()
	g, in := memoWorkloads[w].build(p, d, rng)
	restore()
	d.ResetStats()
	d.SetFaultPlan(plan)
	var n int64
	h := fnv.New64a()
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		n++
		fmt.Fprint(h, a.String())
	}, core.Options{
		Strategy:    core.StrategyExhaustive,
		Parallelism: par,
	})
	if leaked := d.LiveChildren(); leaked != 0 {
		return nil, 0, 0, extmem.FaultStats{}, fmt.Errorf(
			"chaos arm (workload %d, plan %+v, P=%d) leaked %d child disks", w, plan, par, leaked)
	}
	return r, h.Sum64(), n, d.FaultStats(), err
}

// runE26 sweeps transient fault rates against worker counts on the first
// two memo workloads, asserting the chaos contract: every transient fault
// is retried until the run's published figures — emitted rows and their
// order (fingerprinted), the winning branch's execution stats, and the
// winning policy — are bit-identical to the fault-free run, while a
// permanent fault and a mid-run cancellation each abort with a typed error
// and an intact disk.
func runE26(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E26: chaos sweep (fault-injecting disk, exhaustive strategy)",
		Header: []string{"workload", "arm", "workers", "rows", "exec IOs",
			"identical", "transient", "boundary retries", "backoff IOs"},
	}
	nw := 2
	if nw > len(memoWorkloads) {
		nw = len(memoWorkloads)
	}
	for w := 0; w < nw; w++ {
		name := memoWorkloads[w].name
		base, baseHash, baseRows, _, err := chaosArm(p, w, nil, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "fault-free", 0, baseRows, base.ExecStats.IOs(), "baseline", "-", "-", "-")
		for _, rate := range chaosRates {
			for _, par := range chaosWorkers {
				plan := &extmem.FaultPlan{Seed: p.Seed + 101, TransientRate: rate, MaxAttempts: 1 << 20}
				r, hash, rows, fs, err := chaosArm(p, w, plan, par)
				if err != nil {
					return nil, fmt.Errorf("E26 %s rate %v P=%d: %w", name, rate, par, err)
				}
				ok := rows == baseRows && hash == baseHash &&
					r.ExecStats == base.ExecStats &&
					fmt.Sprint(r.Policy) == fmt.Sprint(base.Policy)
				if !ok {
					return nil, fmt.Errorf("E26 %s rate %v P=%d: run diverged from fault-free baseline", name, rate, par)
				}
				// Fault telemetry is only deterministic on the sequential
				// arm: under workers, memo hit/miss timing batches replayed
				// charges differently run to run. Print it where it is
				// reproducible, dashes elsewhere.
				tr, br, bo := "-", "-", "-"
				if par == 0 {
					tr, br, bo = fmt.Sprint(fs.Transient), fmt.Sprint(fs.BoundaryRetries), fmt.Sprint(fs.BackoffIOs)
				}
				t.AddRow(name, fmt.Sprintf("transient %.2f", rate), par, rows, r.ExecStats.IOs(), "yes", tr, br, bo)
			}
		}
		// Permanent fault and cancellation mid-run: typed errors, no leaks
		// (chaosArm checks the registry on every path).
		mid := (base.TotalStats.IOs() / 2) + 1
		_, _, _, pfs, err := chaosArm(p, w, &extmem.FaultPlan{PermanentAt: mid}, 2)
		var fe *extmem.FaultError
		if !errors.As(err, &fe) || fe.Kind != extmem.FaultPermanent {
			return nil, fmt.Errorf("E26 %s: permanent fault returned %v, want *FaultError", name, err)
		}
		t.AddRow(name, "permanent", 2, "-", "-", "typed error", "-", "-", fmt.Sprint(pfs.Permanent)+" permanent")
		_, _, _, _, err = chaosArm(p, w, &extmem.FaultPlan{CancelAt: mid}, 2)
		if !errors.Is(err, extmem.ErrCancelled) {
			return nil, fmt.Errorf("E26 %s: cancellation returned %v, want ErrCancelled", name, err)
		}
		t.AddRow(name, "cancel", 2, "-", "-", "typed error", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free baseline (checked, not assumed)",
		"retry I/O is charged to the fault telemetry side-channel, never the main stats: honest accounting without perturbing the paper's figures",
		"transient/retry columns print only on the sequential arm; under workers, memo timing makes the retry split nondeterministic",
		"permanent and cancel arms abort with typed errors at the next charged I/O; the child-disk registry is asserted empty on every path")
	return t, nil
}
