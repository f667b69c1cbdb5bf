package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

func init() {
	Register(&Experiment{
		ID:       "E30",
		Artifact: "failure model: device-level chaos on the file backend (implementation artifact)",
		Title:    "Device chaos: syscall faults and torn writes absorbed bit-identically; ENOSPC and dead device typed",
		Run:      runE30,
	})
}

// devChaosRates is the transient-and-torn sweep grid; each rate must
// reproduce the fault-free file run bit for bit.
var devChaosRates = []float64{0.02, 0.05, 0.2}

// devChaosArm is one evaluation of memo workload w on the file backend, with
// an optional device-layer plan armed on the storage engine (nil = fault
// free). Unlike the model-level chaos arm, the plan is armed right after
// Open — the instance load writes through the fault device too, which is the
// point: the unbilled load writes see faults on traffic no charged window
// accounts for. The load therefore runs under CatchAbort, so a plan that
// exhausts the device mid-load (ENOSPC, a dead device) still surfaces as a
// typed error rather than a panic. Returns the core Result, an
// order-sensitive FNV fingerprint of the emitted rows, the row count, and the
// engine's fault ledger; the engine is closed on every path.
func devChaosArm(p Params, w int, plan *extmem.FaultPlan) (*core.Result, uint64, int64, extmem.FaultStats, error) {
	cfg := extmem.Config{M: p.M, B: p.B}
	eng, err := diskfile.Open(p.DataDir, cfg)
	if err != nil {
		return nil, 0, 0, extmem.FaultStats{}, fmt.Errorf("device chaos arm: open: %w", err)
	}
	defer eng.Close()
	eng.SetFaultPlan(plan)
	d := extmem.NewDiskWithBackend(cfg, eng)
	if !p.NoMemo {
		opcache.Enable(d)
	}
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	var g *hypergraph.Graph
	var in relation.Instance
	if _, err := d.CatchAbort(func() error {
		restore := d.Suspend()
		defer restore()
		g, in = memoWorkloads[w].build(p, d, rng)
		return nil
	}); err != nil {
		return nil, 0, 0, eng.FaultStats(), err
	}
	d.ResetStats()
	var n int64
	h := fnv.New64a()
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		n++
		fmt.Fprint(h, a.String())
	}, core.Options{Strategy: core.StrategyExhaustive})
	return r, h.Sum64(), n, eng.FaultStats(), err
}

// runE30 sweeps device-level fault rates (transient EIO plus torn writes at
// half the rate) on the first two memo workloads, asserting the device chaos
// contract: the engine absorbs every injected fault below the backend seam —
// bounded retry for transients, image-based repair for torn frames — so the
// published figures are bit-identical to the fault-free file run, with all
// recovery billed to the fault ledger. An ENOSPC cap and a
// dead-device trigger each abort with a typed error and no panic.
func runE30(p Params) (*Table, error) {
	p = p.WithDefaults()
	// E30 pins the file backend and its own fault plans; Params.Backend and
	// the ambient DevFaultRate knob select backends for the OTHER
	// experiments and are deliberately ignored here.
	t := &Table{
		Title: "E30: device chaos sweep (syscall fault injection under the file engine)",
		Header: []string{"workload", "arm", "rows", "exec IOs",
			"identical", "injected r/w", "torn/repaired", "retries", "backoff IOs"},
	}
	nw := 2
	if nw > len(memoWorkloads) {
		nw = len(memoWorkloads)
	}
	for w := 0; w < nw; w++ {
		name := memoWorkloads[w].name
		base, baseHash, baseRows, _, err := devChaosArm(p, w, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "fault-free", baseRows, base.ExecStats.IOs(), "baseline", "-", "-", "-", "-")
		for _, rate := range devChaosRates {
			plan := &extmem.FaultPlan{Seed: p.Seed + 211, Layer: extmem.LayerDevice, Rate: rate, TornRate: rate / 2}
			r, hash, rows, fs, err := devChaosArm(p, w, plan)
			if err != nil {
				return nil, fmt.Errorf("E30 %s rate %v: %w", name, rate, err)
			}
			ok := rows == baseRows && hash == baseHash &&
				r.ExecStats == base.ExecStats &&
				fmt.Sprint(r.Policy) == fmt.Sprint(base.Policy)
			if !ok {
				return nil, fmt.Errorf("E30 %s rate %v: run diverged from fault-free baseline", name, rate)
			}
			// Each transient burns its offset, so it is retried exactly
			// once: the retried reads and writes are the injected ones.
			if fs.Retries != fs.Transient || fs.RetryReads+fs.RetryWrites != fs.Transient {
				return nil, fmt.Errorf("E30 %s rate %v: %d injected transients but %d retries (%d/%d)",
					name, rate, fs.Transient, fs.Retries, fs.RetryReads, fs.RetryWrites)
			}
			t.AddRow(name, fmt.Sprintf("transient %.2f", rate), rows, r.ExecStats.IOs(), "yes",
				fmt.Sprintf("%d/%d", fs.RetryReads, fs.RetryWrites),
				fmt.Sprintf("%d/%d", fs.Torn, fs.Repairs),
				fmt.Sprint(fs.Retries), fmt.Sprint(fs.BackoffIOs))
		}
		// ENOSPC: an 8 KiB arena cap that any workload outgrows. Space
		// exhaustion is never retried, so the abort is immediate and typed.
		_, _, _, nfs, err := devChaosArm(p, w, &extmem.FaultPlan{Layer: extmem.LayerDevice, NoSpaceAfter: 8 << 10})
		if !errors.Is(err, extmem.ErrNoSpace) {
			return nil, fmt.Errorf("E30 %s: ENOSPC arm returned %v, want ErrNoSpace", name, err)
		}
		t.AddRow(name, "ENOSPC", "-", "-", "typed error", "-", "-", "-", fmt.Sprint(nfs.NoSpace)+" hits")
		// Dead device: every syscall from #50 on fails, exhausting the
		// bounded retry budget into a typed permanent failure.
		_, _, _, dfs, err := devChaosArm(p, w, &extmem.FaultPlan{Layer: extmem.LayerDevice, PermanentAt: 50})
		if !errors.Is(err, extmem.ErrDevice) {
			return nil, fmt.Errorf("E30 %s: dead-device arm returned %v, want ErrDevice", name, err)
		}
		if dfs.Permanent != 1 {
			return nil, fmt.Errorf("E30 %s: dead-device arm reported Permanent=%d, want 1", name, dfs.Permanent)
		}
		t.AddRow(name, "dead device", "-", "-", "typed error", "-", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free file run (checked, not assumed)",
		"faults are injected under EVERY pread/pwrite, including the unbilled load writes, backfills and repair rewrites that no charged transfer maps to",
		"recovery (retries, backoff, torn-frame repairs from the in-memory image) is billed to the FaultStats ledger, never the main stats; every injected transient is retried once",
		"ENOSPC and dead-device arms abort with typed errors (ErrNoSpace, ErrDevice), never a panic, and the engine is closed on every path")
	return t, nil
}
