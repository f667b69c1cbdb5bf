package harness

import (
	"errors"
	"fmt"

	"acyclicjoin/internal/extmem"
)

func init() {
	Register(&Experiment{
		ID:       "E26",
		Artifact: "failure model: chaos sweep of the fault-injecting disk (implementation artifact)",
		Title:    "Chaos: transient faults retried bit-identically; permanent faults and cancellation typed",
		Run:      runE26,
	})
}

// chaosRates is the sweep grid of E26 and E30: every transient fault rate
// must reproduce the fault-free run bit for bit.
var chaosRates = []float64{0.02, 0.05, 0.2}

// chaosPins are the published figures a fault sweep must reproduce: emitted
// rows and their order, the winning branch's execution stats, and the
// winning policy.
const chaosPins = pinCount | pinOrdered | pinExec | pinPolicy

// runE26 sweeps model-layer transient fault rates on the first two memo
// workloads: every transient fault is retried inline, once, so the published
// figures match the fault-free run, while a permanent fault and a mid-run
// cancellation each abort with a typed error and an intact disk.
func runE26(p Params) (*Table, error) {
	p = p.WithDefaults()
	p.NoMemo = false // fault counts follow the performed transfers, which the memo sets
	t := &Table{
		Title: "E26: chaos sweep (fault-injecting disk, exhaustive strategy)",
		Header: []string{"workload", "arm", "rows", "exec IOs",
			"identical", "transient", "injected r/w", "retries", "backoff IOs"},
	}
	for w, wl := range memoWorkloads[:2] {
		base, err := runArm(p, w, arm{emit: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(wl.name, "fault-free", base.rows, base.res.ExecStats.IOs(), "baseline", "-", "-", "-", "-")
		for _, rate := range chaosRates {
			plan := &extmem.FaultPlan{Seed: p.Seed + 101, Rate: rate}
			r, err := runAgainst(p, w, arm{emit: true, plan: plan}, base, chaosPins)
			if err != nil {
				return nil, fmt.Errorf("E26 %s rate %v: %w", wl.name, rate, err)
			}
			// Each transient is re-issued once inline and bills one
			// block-time of backoff: the ledger's identities are exact.
			fs := r.faults
			if fs.Retries != fs.Transient || fs.RetryReads+fs.RetryWrites != fs.Transient || fs.BackoffIOs != fs.Retries {
				return nil, fmt.Errorf("E26 %s rate %v: %d injected transients but %d retries (%d/%d), %d backoff IOs",
					wl.name, rate, fs.Transient, fs.Retries, fs.RetryReads, fs.RetryWrites, fs.BackoffIOs)
			}
			t.AddRow(wl.name, fmt.Sprintf("transient %.2f", rate), r.rows, r.res.ExecStats.IOs(), "yes",
				fs.Transient, fmt.Sprintf("%d/%d", fs.RetryReads, fs.RetryWrites), fs.Retries, fs.BackoffIOs)
		}
		// Permanent fault and cancellation mid-run: typed errors.
		mid := (base.res.TotalStats.IOs() / 2) + 1
		perm, err := runArm(p, w, arm{emit: true, plan: &extmem.FaultPlan{PermanentAt: mid}})
		var fe *extmem.FaultError
		if !errors.As(err, &fe) {
			return nil, fmt.Errorf("E26 %s: permanent fault returned %v, want *FaultError", wl.name, err)
		}
		t.AddRow(wl.name, "permanent", "-", "-", "typed error", "-", "-", "-", fmt.Sprint(perm.faults.Permanent)+" permanent")
		_, err = runArm(p, w, arm{emit: true, plan: &extmem.FaultPlan{CancelAt: mid}})
		if !errors.Is(err, extmem.ErrCancelled) {
			return nil, fmt.Errorf("E26 %s: cancellation returned %v, want ErrCancelled", wl.name, err)
		}
		t.AddRow(wl.name, "cancel", "-", "-", "typed error", "-", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free baseline (checked, not assumed)",
		"retry I/O (one re-issued transfer and one block-time of backoff per transient) is charged to the fault telemetry side-channel, never the main stats: honest accounting without perturbing the paper's figures",
		"permanent and cancel arms abort with typed errors at the next charged I/O, never a panic; under a file backend with device faults armed, both layers inject at once")
	return t, nil
}
