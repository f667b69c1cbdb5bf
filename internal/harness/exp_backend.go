package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

func init() {
	Register(&Experiment{
		ID:       "E27",
		Artifact: "storage backends: the charged transfer schedule is physically executable (implementation artifact)",
		Title:    "Backends: sim vs os.File engine — transfer parity, bit-identical results, device telemetry",
		Run:      runE27,
	})
}

// backendRun is one workload evaluation on one backend: the core result, the
// emitted-row fingerprint, the full charged stats, the seam ledger, and the
// engine telemetry.
type backendRun struct {
	res  *core.Result
	hash uint64
	rows int64
	full extmem.Stats
	xfer extmem.XferStats
	dev  extmem.DeviceStats
}

// backendArm evaluates memo workload w with the exhaustive strategy on the
// given backend ("sim" or "file"), loading the instance on the free path and
// measuring the run proper, exactly like the other experiment arms. It
// verifies the seam invariant — charged stats equal performed plus replayed
// transfers — before returning.
func backendArm(p Params, w int, backend string, par int) (*backendRun, error) {
	ap := p
	ap.Backend = backend
	d := newDisk(ap)
	eng := d.Backend()
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	restore := d.Suspend()
	g, in := memoWorkloads[w].build(p, d, rng)
	restore()
	d.ResetStats()
	var n int64
	h := fnv.New64a()
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		n++
		fmt.Fprint(h, a.String())
	}, core.Options{Strategy: core.StrategyExhaustive, Parallelism: par})
	if err != nil {
		return nil, err
	}
	if leaked := d.LiveChildren(); leaked != 0 {
		return nil, fmt.Errorf("backend arm (%s, workload %d) leaked %d child disks", backend, w, leaked)
	}
	out := &backendRun{res: r, hash: h.Sum64(), rows: n,
		full: d.Stats(), xfer: d.Transfers(), dev: d.DeviceStats()}
	if out.full.Reads != out.xfer.TotalReads() || out.full.Writes != out.xfer.TotalWrites() {
		return nil, fmt.Errorf("backend arm (%s, workload %d): seam parity broken: stats %v vs transfers %+v",
			backend, w, out.full, out.xfer)
	}
	if eng != nil {
		if err := eng.Close(); err != nil {
			return nil, fmt.Errorf("backend arm (%s, workload %d): close engine: %w", backend, w, err)
		}
	}
	return out, nil
}

// compareBackendRuns applies the differential contract: identical rows (count
// and order), identical winning policy, identical execution and full charged
// stats, identical seam ledgers, and — on the file side — engine-observed
// billed transfers exactly equal to the performed side of the ledger.
func compareBackendRuns(name string, sim, file *backendRun) error {
	switch {
	case sim.rows != file.rows || sim.hash != file.hash:
		return fmt.Errorf("E27 %s: emitted rows diverge across backends", name)
	case fmt.Sprint(sim.res.Policy) != fmt.Sprint(file.res.Policy):
		return fmt.Errorf("E27 %s: winning policy diverges across backends", name)
	case sim.res.ExecStats != file.res.ExecStats:
		return fmt.Errorf("E27 %s: exec stats diverge: sim %v, file %v", name, sim.res.ExecStats, file.res.ExecStats)
	case sim.full != file.full:
		return fmt.Errorf("E27 %s: full stats diverge: sim %v, file %v", name, sim.full, file.full)
	case sim.xfer != file.xfer:
		return fmt.Errorf("E27 %s: seam ledgers diverge: sim %+v, file %+v", name, sim.xfer, file.xfer)
	case file.dev.BilledReads != file.xfer.Reads || file.dev.BilledWrites != file.xfer.Writes:
		return fmt.Errorf("E27 %s: engine observed %d/%d billed transfers, ledger performed %d/%d",
			name, file.dev.BilledReads, file.dev.BilledWrites, file.xfer.Reads, file.xfer.Writes)
	case file.dev.CacheHits+file.dev.DeviceServes+file.dev.BackfillServes != file.dev.BilledReads:
		return fmt.Errorf("E27 %s: engine read serves do not cover billed reads: %+v", name, file.dev)
	}
	return nil
}

// runE27 runs every memo workload on both backends sequentially and reports
// the differential outcome plus the file engine's device telemetry. All
// printed columns are deterministic: the sequential schedule fixes the device
// access sequence, so even syscall and cache counters reproduce exactly.
func runE27(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E27: storage backends — sim vs os.File engine, exhaustive strategy",
		Header: []string{"workload", "rows", "IOs", "xfer R/W", "replayed R/W",
			"preads", "pwrites", "cache hits", "prefetched", "parity", "identical"},
	}
	for w := range memoWorkloads {
		name := memoWorkloads[w].name
		sim, err := backendArm(p, w, "sim", 0)
		if err != nil {
			return nil, err
		}
		file, err := backendArm(p, w, "file", 0)
		if err != nil {
			return nil, err
		}
		if err := compareBackendRuns(name, sim, file); err != nil {
			return nil, err
		}
		t.AddRow(name, file.rows, file.full.IOs(),
			fmt.Sprintf("%d/%d", file.xfer.Reads, file.xfer.Writes),
			fmt.Sprintf("%d/%d", file.xfer.ReplayedReads, file.xfer.ReplayedWrites),
			file.dev.ReadCalls, file.dev.WriteCalls, file.dev.CacheHits, file.dev.Prefetched,
			"exact", "yes")
	}
	t.Notes = append(t.Notes,
		"parity = charged Stats equal seam transfers (performed + memo-replayed) on BOTH backends, and the engine's observed billed transfers equal the performed side exactly",
		"identical = rows+order (FNV fingerprint), winning policy, exec stats, full stats, and seam ledger match across backends bit for bit",
		"preads/pwrites are real syscalls; write batching coalesces contiguous frames, the block cache (M/B frames) absorbs re-reads, sequential scans prefetch ahead",
		"every charged read on the file engine is byte-verified against the in-memory image: a torn or corrupt block panics at the exact transfer that broke")
	return t, nil
}
