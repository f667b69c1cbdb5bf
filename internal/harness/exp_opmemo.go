package harness

import (
	"fmt"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E24",
		Artifact: "operator memo with branch-prefix reuse (implementation artifact)",
		Title:    "Memo A/B across operator-diverse workloads: off vs on vs bounded, all bit-identical",
		Run:      runE24,
	})
}

// memoWorkloads widen the E23 sweep to exercise every memoized operator
// kind: L3 worst case leans on sorts and the materialized pairwise join,
// L4/L5 uniform on the reducer's semijoin passes (L5 adds a deep branch
// space for prefix reuse), and the star worst case on projection and the
// heavy/light split. Each build uses only the passed disk and rng, so every
// arm sees an identical instance.
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

// memoArm selects one configuration of a memo A/B run.
type memoArm struct {
	mode   core.MemoMode
	limits opcache.Limits
}

// runMemoArm runs one exhaustive-strategy evaluation of memo workload w
// under the given arm, returning the run's I/O stats, result count, and memo
// counters.
func runMemoArm(p Params, w int, arm memoArm) (extmem.Stats, int64, opcache.Stats, error) {
	ap := p
	ap.NoMemo = arm.mode == core.MemoOff
	d := newBackendDisk(ap, extmem.Config{M: ap.M, B: ap.B})
	if !ap.NoMemo {
		opcache.EnableLimited(d, arm.limits)
	}
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	restore := d.Suspend()
	g, in := memoWorkloads[w].build(p, d, rng)
	restore()
	d.ResetStats()
	r, err := core.Run(g, in, nil, core.Options{
		Strategy:   core.StrategyExhaustive,
		Memo:       arm.mode,
		MemoLimits: arm.limits,
		// Full-stats bit-identity across memo modes is an unpruned contract:
		// see runSortCacheArm. Pinned here so E24's cross-arm comparison
		// stays exact.
		NoPrune: true,
	})
	var n int64
	if err == nil {
		n = r.Emitted
	}
	var cs opcache.Stats
	if m := opcache.Of(d); m != nil {
		cs = m.Stats()
	}
	return d.Stats(), n, cs, err
}

// e24BoundedLimits is the deliberately tight budget of E24's bounded arm:
// small enough to force evictions on every workload, proving eviction only
// costs recomputation and never changes a counter.
var e24BoundedLimits = opcache.Limits{MaxEntries: 4}

func runE24(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E24: operator memo A/B (exhaustive strategy): off vs on vs bounded(4 entries)",
		Header: []string{"workload", "IOs", "identical", "hits", "misses",
			"KB replayed", "evictions (bounded)"},
	}
	arms := []struct {
		name string
		arm  memoArm
	}{
		{"on", memoArm{mode: core.MemoOn}},
		{"bounded", memoArm{mode: core.MemoOn, limits: e24BoundedLimits}},
	}
	for w := range memoWorkloads {
		ref, nRef, _, err := runMemoArm(p, w, memoArm{mode: core.MemoOff})
		if err != nil {
			return nil, err
		}
		var onStats, boundedStats opcache.Stats
		for _, a := range arms {
			st, n, cs, err := runMemoArm(p, w, a.arm)
			if err != nil {
				return nil, fmt.Errorf("E24 %s arm %s: %w", memoWorkloads[w].name, a.name, err)
			}
			if st != ref || n != nRef {
				return nil, fmt.Errorf("E24 %s: arm %s changed the simulation: %+v (%d rows) vs memo-off %+v (%d rows)",
					memoWorkloads[w].name, a.name, st, n, ref, nRef)
			}
			switch a.name {
			case "on":
				onStats = cs
			case "bounded":
				boundedStats = cs
			}
		}
		t.AddRow(memoWorkloads[w].name, ref.IOs(), "yes",
			onStats.Hits, onStats.Misses, onStats.BytesReplayed/1024, boundedStats.Evictions)
	}
	t.Notes = append(t.Notes,
		"identical = reads, writes, hi-water, and result counts match the memo-off reference bit for bit in every arm",
		"bounded arm caps the memo at 4 entries (LRU): evictions cost recomputation only, never a counter")
	return t, nil
}
