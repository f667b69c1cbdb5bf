package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/faultbackend"
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

// devChaosRates is the transient-and-torn sweep grid; each rate runs in both
// device modes (synchronous and asynchronous pipeline) and must reproduce the
// fault-free file run bit for bit.
var devChaosRates = []float64{0.02, 0.05, 0.2}

// devChaosArm is one evaluation of memo workload w on the file backend, with
// an optional device fault plan interposed under the storage engine (nil =
// fault free) and the device pipeline forced synchronous or left
// asynchronous. Unlike the model-level chaos arm, the fault device is armed
// from Open — the instance load writes through it too, which is the point:
// the async flusher sees faults on traffic no charged operation is waiting
// on. The load therefore runs under CatchAbort, so a plan that exhausts the
// device mid-load (ENOSPC, DeadAt) still surfaces as a typed error rather
// than a panic. Returns the core Result, an order-sensitive FNV fingerprint
// of the emitted rows, the row count, and the disk's fault telemetry (whose
// Device side carries the injection and recovery counters); the engine is
// closed and the child-disk registry asserted empty on every path.
func devChaosArm(p Params, w int, plan *extmem.DeviceFaultPlan, syncDev bool) (*core.Result, uint64, int64, extmem.FaultStats, error) {
	cfg := extmem.Config{M: p.M, B: p.B}
	b, err := faultbackend.OpenBackend(p.DataDir, cfg, syncDev, plan)
	if err != nil {
		return nil, 0, 0, extmem.FaultStats{}, fmt.Errorf("device chaos arm: open: %w", err)
	}
	defer b.Close()
	d := extmem.NewDiskWithBackend(cfg, b)
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
		return nil, 0, 0, d.FaultStats(), err
	}
	d.ResetStats()
	var n int64
	h := fnv.New64a()
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		n++
		fmt.Fprint(h, a.String())
	}, core.Options{Strategy: core.StrategyExhaustive})
	fs := d.FaultStats()
	if leaked := d.LiveChildren(); leaked != 0 {
		return nil, 0, 0, fs, fmt.Errorf(
			"device chaos arm (workload %d, plan %+v, sync=%v) leaked %d child disks", w, plan, syncDev, leaked)
	}
	return r, h.Sum64(), n, fs, err
}

// runE30 sweeps device-level fault rates (transient EIO plus torn writes at
// half the rate) across both device modes on the first two memo workloads,
// asserting the device chaos contract: the engine absorbs every injected
// fault below the backend seam — bounded retry for transients, image-based
// repair for torn frames — so the published figures are bit-identical to the
// fault-free file run, with all recovery billed to the DeviceFaultStats side
// channel. An ENOSPC cap and a dead-device trigger each abort with a typed
// error, no panic, and no leaked children.
func runE30(p Params) (*Table, error) {
	p = p.WithDefaults()
	// E30 pins the file backend and its own fault plans; Params.Backend and
	// the ambient DevFaultRate knob select backends for the OTHER
	// experiments and are deliberately ignored here.
	t := &Table{
		Title: "E30: device chaos sweep (syscall fault injection under the file engine)",
		Header: []string{"workload", "arm", "device", "rows", "exec IOs",
			"identical", "injected r/w", "torn/repaired", "retries", "backoff IOs"},
	}
	nw := 2
	if nw > len(memoWorkloads) {
		nw = len(memoWorkloads)
	}
	for w := 0; w < nw; w++ {
		name := memoWorkloads[w].name
		base, baseHash, baseRows, _, err := devChaosArm(p, w, nil, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "fault-free", "sync", baseRows, base.ExecStats.IOs(), "baseline", "-", "-", "-", "-")
		for _, rate := range devChaosRates {
			for _, syncDev := range []bool{true, false} {
				mode := "async"
				if syncDev {
					mode = "sync"
				}
				plan := &extmem.DeviceFaultPlan{Seed: p.Seed + 211, Rate: rate, TornRate: rate / 2}
				r, hash, rows, fs, err := devChaosArm(p, w, plan, syncDev)
				if err != nil {
					return nil, fmt.Errorf("E30 %s rate %v %s: %w", name, rate, mode, err)
				}
				ok := rows == baseRows && hash == baseHash &&
					r.ExecStats == base.ExecStats &&
					fmt.Sprint(r.Policy) == fmt.Sprint(base.Policy)
				if !ok {
					return nil, fmt.Errorf("E30 %s rate %v %s: run diverged from fault-free baseline", name, rate, mode)
				}
				// The injection schedule keys on the syscall index, which is
				// deterministic only when the device pipeline is synchronous;
				// under the async workers the interleaving (and so the
				// telemetry split) varies run to run. Results never do.
				dev := fs.Device
				inj, torn, ret, bo := "-", "-", "-", "-"
				if syncDev {
					inj = fmt.Sprintf("%d/%d", dev.InjectedReads, dev.InjectedWrites)
					torn = fmt.Sprintf("%d/%d", dev.TornWrites, dev.Repairs)
					ret = fmt.Sprint(dev.Retries)
					bo = fmt.Sprint(dev.BackoffIOs)
				}
				t.AddRow(name, fmt.Sprintf("transient %.2f", rate), mode, rows, r.ExecStats.IOs(), "yes", inj, torn, ret, bo)
			}
		}
		// ENOSPC: an 8 KiB arena cap that any workload outgrows. Space
		// exhaustion is never retried, so the abort is immediate and typed.
		_, _, _, nfs, err := devChaosArm(p, w, &extmem.DeviceFaultPlan{NoSpaceAfter: 8 << 10}, true)
		if !errors.Is(err, extmem.ErrNoSpace) {
			return nil, fmt.Errorf("E30 %s: ENOSPC arm returned %v, want ErrNoSpace", name, err)
		}
		t.AddRow(name, "ENOSPC", "sync", "-", "-", "typed error", "-", "-", "-", fmt.Sprint(nfs.Device.NoSpace)+" hits")
		// Dead device: every syscall from #50 on fails, exhausting the
		// bounded retry budget into a typed permanent failure.
		_, _, _, dfs, err := devChaosArm(p, w, &extmem.DeviceFaultPlan{DeadAt: 50}, true)
		if !errors.Is(err, extmem.ErrDevice) {
			return nil, fmt.Errorf("E30 %s: dead-device arm returned %v, want ErrDevice", name, err)
		}
		if dfs.Device.DeviceDead != 1 {
			return nil, fmt.Errorf("E30 %s: dead-device arm reported DeviceDead=%d, want 1", name, dfs.Device.DeviceDead)
		}
		t.AddRow(name, "dead device", "sync", "-", "-", "typed error", "-", "-", "-", "-")
	}
	t.Notes = append(t.Notes,
		"identical = emitted rows and order (FNV fingerprint), exec stats, and winning policy match the fault-free file run (checked, not assumed)",
		"faults are injected under EVERY pread/pwrite, including the async flusher and prefetch workers that never cross the charged seam",
		"recovery (retries, backoff, torn-frame repairs from the in-memory image) is billed to the DeviceFaultStats side channel, never the main stats",
		"telemetry columns print only on sync-device arms; the async pipeline's syscall interleaving makes the injection split timing-dependent",
		"ENOSPC and dead-device arms abort with typed errors (ErrNoSpace, ErrDevice), engines closed, child-disk registry empty on every path")
	return t, nil
}
