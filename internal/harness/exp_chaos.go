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

// chaosRates is the sweep grid: every transient fault rate must reproduce
// the fault-free run bit for bit.
var chaosRates = []float64{0.02, 0.05, 0.2}

// chaosArm is one evaluation of memo workload w under plan (nil = fault
// free). It returns the core Result, the run's emitted-row fingerprint (an
// order-sensitive FNV hash of every emitted assignment), the row count, the
// disk's fault telemetry, and the error. The plan is armed after the
// instance is loaded, so loading never faults.
func chaosArm(p Params, w int, plan *extmem.FaultPlan) (*core.Result, uint64, int64, extmem.FaultStats, error) {
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
	}, core.Options{Strategy: core.StrategyExhaustive})
	return r, h.Sum64(), n, d.FaultStats(), err
}

// runE26 sweeps transient fault rates on the first two memo workloads,
// asserting the chaos contract: every transient fault is retried until the
// run's published figures — emitted rows and their order (fingerprinted),
// the winning branch's execution stats, and the winning policy — are
// bit-identical to the fault-free run, while a permanent fault and a
// mid-run cancellation each abort with a typed error and an intact disk.
func runE26(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E26: chaos sweep (fault-injecting disk, exhaustive strategy)",
		Header: []string{"workload", "arm", "rows", "exec IOs",
			"identical", "transient", "boundary retries", "backoff IOs"},
	}
	nw := 2
	if nw > len(memoWorkloads) {
		nw = len(memoWorkloads)
	}
	for w := 0; w < nw; w++ {
		name := memoWorkloads[w].name
		base, baseHash, baseRows, _, err := chaosArm(p, w, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "fault-free", baseRows, base.ExecStats.IOs(), "baseline", "-", "-", "-")
		for _, rate := range chaosRates {
			plan := &extmem.FaultPlan{Seed: p.Seed + 101, Rate: rate, MaxAttempts: 1 << 20}
			r, hash, rows, fs, err := chaosArm(p, w, plan)
			if err != nil {
				return nil, fmt.Errorf("E26 %s rate %v: %w", name, rate, err)
			}
			ok := rows == baseRows && hash == baseHash &&
				r.ExecStats == base.ExecStats &&
				fmt.Sprint(r.Policy) == fmt.Sprint(base.Policy)
			if !ok {
				return nil, fmt.Errorf("E26 %s rate %v: run diverged from fault-free baseline", name, rate)
			}
			t.AddRow(name, fmt.Sprintf("transient %.2f", rate), rows, r.ExecStats.IOs(), "yes",
				fs.Transient, fs.BoundaryRetries, fs.BackoffIOs)
		}
		// Permanent fault and cancellation mid-run: typed errors.
		mid := (base.TotalStats.IOs() / 2) + 1
		_, _, _, pfs, err := chaosArm(p, w, &extmem.FaultPlan{PermanentAt: mid})
		var fe *extmem.FaultError
		if !errors.As(err, &fe) || fe.Kind != extmem.FaultPermanent {
			return nil, fmt.Errorf("E26 %s: permanent fault returned %v, want *FaultError", name, err)
		}
		t.AddRow(name, "permanent", "-", "-", "typed error", "-", "-", fmt.Sprint(pfs.Permanent)+" permanent")
		_, _, _, _, err = chaosArm(p, w, &extmem.FaultPlan{CancelAt: mid})
		if !errors.Is(err, extmem.ErrCancelled) {
			return nil, fmt.Errorf("E26 %s: cancellation returned %v, want ErrCancelled", name, err)
		}
		t.AddRow(name, "cancel", "-", "-", "typed error", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free baseline (checked, not assumed)",
		"retry I/O is charged to the fault telemetry side-channel, never the main stats: honest accounting without perturbing the paper's figures",
		"permanent and cancel arms abort with typed errors at the next charged I/O, never a panic; under a file backend with device faults armed, both layers inject at once")
	return t, nil
}
