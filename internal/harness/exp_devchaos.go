package harness

import (
	"errors"
	"fmt"

	"acyclicjoin/internal/extmem"
)

func init() {
	Register(&Experiment{
		ID:       "E30",
		Artifact: "failure model: device-level chaos on the file backend (implementation artifact)",
		Title:    "Device chaos: syscall faults and torn writes absorbed bit-identically; ENOSPC and dead device typed",
		Run:      runE30,
	})
}

// runE30 sweeps device-level fault rates (transient EIO plus torn writes at
// half the rate) on the first two memo workloads: the engine absorbs every
// injected fault below the backend seam — bounded retry for transients,
// image-based repair for torn frames — so the published figures match the
// fault-free file run. Every arm pins the file backend and a device-layer
// plan that replaces the ambient one: Params.Backend and DevFaultRate select
// backends for the OTHER experiments and are deliberately ignored here.
func runE30(p Params) (*Table, error) {
	p = p.WithDefaults()
	p.NoMemo = false // fault counts follow the performed transfers, which the memo sets
	t := &Table{
		Title: "E30: device chaos sweep (syscall fault injection under the file engine)",
		Header: []string{"workload", "arm", "rows", "exec IOs",
			"identical", "injected r/w", "torn/repaired", "retries", "backoff IOs"},
	}
	device := func(plan extmem.FaultPlan) arm {
		plan.Layer = extmem.LayerDevice
		return arm{backend: "file", emit: true, plan: &plan}
	}
	for w, wl := range memoWorkloads[:2] {
		base, err := runArm(p, w, device(extmem.FaultPlan{}))
		if err != nil {
			return nil, err
		}
		t.AddRow(wl.name, "fault-free", base.rows, base.res.ExecStats.IOs(), "baseline", "-", "-", "-", "-")
		for _, rate := range chaosRates {
			a := device(extmem.FaultPlan{Seed: p.Seed + 211, Rate: rate, TornRate: rate / 2})
			r, err := runAgainst(p, w, a, base, chaosPins)
			if err != nil {
				return nil, fmt.Errorf("E30 %s rate %v: %w", wl.name, rate, err)
			}
			// Each transient burns its offset, so it is retried exactly
			// once: the retried reads and writes are the injected ones.
			fs := r.faults
			if fs.Retries != fs.Transient || fs.RetryReads+fs.RetryWrites != fs.Transient {
				return nil, fmt.Errorf("E30 %s rate %v: %d injected transients but %d retries (%d/%d)",
					wl.name, rate, fs.Transient, fs.Retries, fs.RetryReads, fs.RetryWrites)
			}
			t.AddRow(wl.name, fmt.Sprintf("transient %.2f", rate), r.rows, r.res.ExecStats.IOs(), "yes",
				fmt.Sprintf("%d/%d", fs.RetryReads, fs.RetryWrites),
				fmt.Sprintf("%d/%d", fs.Torn, fs.Repairs),
				fs.Retries, fs.BackoffIOs)
		}
		// ENOSPC: an 8 KiB arena cap that any workload outgrows. Space
		// exhaustion is never retried, so the abort is immediate and typed.
		nospace, err := runArm(p, w, device(extmem.FaultPlan{NoSpaceAfter: 8 << 10}))
		if !errors.Is(err, extmem.ErrNoSpace) {
			return nil, fmt.Errorf("E30 %s: ENOSPC arm returned %v, want ErrNoSpace", wl.name, err)
		}
		t.AddRow(wl.name, "ENOSPC", "-", "-", "typed error", "-", "-", "-", fmt.Sprint(nospace.faults.NoSpace)+" hits")
		// Dead device: every syscall from #50 on fails, exhausting the
		// bounded retry budget into a typed permanent failure.
		dead, err := runArm(p, w, device(extmem.FaultPlan{PermanentAt: 50}))
		if !errors.Is(err, extmem.ErrDevice) {
			return nil, fmt.Errorf("E30 %s: dead-device arm returned %v, want ErrDevice", wl.name, err)
		}
		if dead.faults.Permanent != 1 {
			return nil, fmt.Errorf("E30 %s: dead-device arm reported Permanent=%d, want 1", wl.name, dead.faults.Permanent)
		}
		t.AddRow(wl.name, "dead device", "-", "-", "typed error", "-", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free file run (checked, not assumed)",
		"faults are injected under EVERY pread/pwrite, including the unbilled load writes, backfills and repair rewrites that no charged transfer maps to",
		"recovery (retries, backoff, torn-frame repairs from the in-memory image) is billed to the FaultStats ledger, never the main stats; every injected transient is retried once",
		"ENOSPC and dead-device arms abort with typed errors (ErrNoSpace, ErrDevice), never a panic, and the engine is closed on every path")
	return t, nil
}
