package harness

import (
	"fmt"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// memoWorkloads are the subjects of the knob-invariance experiment (E23) and
// the greedy grading (E28), chosen to exercise every memoized operator kind:
// L3 worst case leans on sorts and the materialized pairwise join, L4/L5
// uniform on the reducer's semijoin passes (L5 adds a deep branch space for
// prefix reuse), and the star worst case on projection and the heavy/light
// split. Each build uses only the passed disk and rng, so every arm sees an
// identical instance.
var memoWorkloads = []struct {
	name  string
	build func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance)
}{
	{"L3 worst case", func(p Params, d *extmem.Disk, _ *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		n := p.M * 2 * p.Scale
		return workload.Line3WorstCase(d, n, n)
	}},
	{"L4 uniform", func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		return workload.LineUniform(d, rng, 4, p.M*2*p.Scale, p.M*p.Scale)
	}},
	{"L5 uniform", func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		return workload.LineUniform(d, rng, 5, p.M*2*p.Scale, p.M*p.Scale)
	}},
	{"star-2 worst case", func(p Params, d *extmem.Disk, _ *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		n := p.B * 4 * p.Scale
		return workload.StarWorstCase(d, []int{n, n})
	}},
}

// arm is one configuration of a knob-invariance run: the knob settings an
// experiment compares against a reference arm. The zero value is the
// exhaustive strategy, pruned, memo on, on the Params backend, fault free,
// rows counted.
type arm struct {
	// backend pins the storage engine ("sim" or "file"); empty follows
	// Params.Backend. Either way the disk comes from newBackendDisk, so a
	// file engine honours the ambient Params.DevFaultRate.
	backend string
	// noMemo builds the arm's disk without an operator memo, as
	// Params.NoMemo does for every arm.
	noMemo   bool
	noPrune  bool
	strategy core.Strategy
	// plan is an optional fault plan. A model-layer plan is armed after the
	// load, so loading never faults. A device-layer plan needs the file
	// backend; it replaces the ambient one and is armed right after Open, so
	// the unbilled load writes see faults too. The load therefore runs under
	// CatchAbort, so a device that dies mid-load still surfaces as a typed
	// error.
	plan *extmem.FaultPlan
	// emit enumerates the rows to fingerprint them; otherwise core.Run only
	// counts them.
	emit bool
}

// armRun is what one arm measured. faults is the engine's ledger under a
// device-layer plan and the disk's model-layer ledger otherwise; it is set
// even when the run fails.
type armRun struct {
	res     *core.Result
	rows    int64
	ordered uint64 // FNV-1a over the row hashes, in emission order
	set     uint64 // wrap-around sum of the row hashes: insensitive to order
	stats   extmem.Stats
	xfer    extmem.XferStats
	dev     extmem.DeviceStats
	faults  extmem.FaultStats
	memo    opcache.Stats
}

// runArm evaluates memo workload w under a, seeding the workload with
// Params.Seed+w, loading it with charging suspended and measuring the run
// proper. A successful run is checked for seam parity. Any file engine is
// closed on every path; a close error is reported only when the run itself
// succeeded.
func runArm(p Params, w int, a arm) (out armRun, err error) {
	bp := p
	if a.backend != "" {
		bp.Backend = a.backend
	}
	device := a.plan != nil && a.plan.Layer == extmem.LayerDevice
	if device {
		bp.DevFaultRate = 0 // the arm's plan replaces the ambient one
	}
	if a.noMemo {
		bp.NoMemo = true
	}
	d := newBackendDisk(bp, extmem.Config{M: p.M, B: p.B})
	faults := d.FaultStats
	if eng, ok := d.Backend().(*diskfile.Engine); ok && device {
		eng.SetFaultPlan(a.plan)
		faults = eng.FaultStats
	}
	defer func() {
		out.faults = faults()
		closeDisk(d, &err)
	}()
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	var g *hypergraph.Graph
	var in relation.Instance
	if _, err := d.CatchAbort(func() error {
		defer d.Suspend()()
		g, in = memoWorkloads[w].build(p, d, rng)
		return nil
	}); err != nil {
		return out, err
	}
	d.ResetStats()
	d.SetFaultPlan(a.plan) // model layer only: device plans are armed at Open
	var emit core.Emit
	if a.emit {
		out.ordered = fnvOffset
		emit = func(row tuple.Assignment) {
			h := rowHash(row)
			out.ordered = (out.ordered ^ h) * fnvPrime
			out.set += h
		}
	}
	out.res, err = core.Run(g, in, emit, core.Options{Strategy: a.strategy, NoPrune: a.noPrune})
	out.stats, out.xfer, out.dev = d.Stats(), d.Transfers(), d.DeviceStats()
	if err == nil {
		out.rows = out.res.Emitted
		// The seam invariant: charged stats equal performed plus replayed
		// transfers, on every backend.
		if out.stats.Reads != out.xfer.TotalReads() || out.stats.Writes != out.xfer.TotalWrites() {
			err = fmt.Errorf("seam parity broken: stats %v vs transfers %+v", out.stats, out.xfer)
		}
	}
	if m := opcache.Of(d); m != nil {
		out.memo = m.Stats()
	}
	return out, err
}

// rowHash is the FNV-1a hash, taken a 64-bit word at a time, of one emitted
// row's bound cells, each fed as its attribute index and value, finished
// with murmur3's fmix64 mixing. A product's low bits depend only on its
// inputs' low bits; without the mixing, sums of row hashes over structured
// row sets (a cross product, say) cancel in their low bits.
func rowHash(row tuple.Assignment) uint64 {
	h := uint64(fnvOffset)
	for at, v := range row {
		if v != tuple.Unset {
			h = ((h^uint64(at))*fnvPrime ^ uint64(v)) * fnvPrime
		}
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// pin selects the figures diverge compares.
type pin uint

const (
	pinCount   pin = 1 << iota // emitted row count
	pinOrdered                 // rows and their order (ordered fingerprint)
	pinSet                     // the row multiset (order-free fingerprint)
	pinExec                    // Result.ExecStats
	pinPolicy                  // Result.Policy
	pinStats                   // full disk Stats, reads/writes split and hi-water included
	pinXfer                    // seam Transfers ledger
)

// diverge names the first pinned figure on which got differs from ref, or
// returns "" when they agree on all of them. Figures outside pins are
// ignored.
func diverge(ref, got armRun, pins pin) string {
	for _, f := range []struct {
		pin      pin
		name     string
		ref, got any
	}{
		{pinCount, "row count", ref.rows, got.rows},
		{pinOrdered, "ordered rows fingerprint", ref.ordered, got.ordered},
		{pinSet, "order-free rows fingerprint", ref.set, got.set},
		{pinExec, "exec stats", ref.res.ExecStats, got.res.ExecStats},
		{pinPolicy, "policy", fmt.Sprint(ref.res.Policy), fmt.Sprint(got.res.Policy)},
		{pinStats, "full stats", ref.stats, got.stats},
		{pinXfer, "transfers", ref.xfer, got.xfer},
	} {
		if pins&f.pin != 0 && f.ref != f.got {
			return fmt.Sprintf("%s (%+v vs %+v)", f.name, f.ref, f.got)
		}
	}
	return ""
}

// runAgainst runs arm a on workload w and checks it against ref on pins.
func runAgainst(p Params, w int, a arm, ref armRun, pins pin) (armRun, error) {
	got, err := runArm(p, w, a)
	if err == nil {
		if f := diverge(ref, got, pins); f != "" {
			err = fmt.Errorf("%s diverged from the reference arm", f)
		}
	}
	return got, err
}
