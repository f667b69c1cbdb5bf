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
		ID:       "E23",
		Artifact: "charge-replay operator memo (implementation artifact)",
		Title:    "Memo A/B on sort-heavy runs: simulated I/O bit-identical with the memo on and off",
		Run:      runE23,
	})
}

// sortCacheWorkloads are the historical E23 A/B subjects: exhaustive-strategy
// runs whose dry-run branches re-sort the same relations, so the memo has
// real work to absorb (these runs are dominated by memoized sorts, hence the
// name). Each build uses only the passed disk and rng, so the on and off
// arms see identical instances. E24 (exp_opmemo.go) widens the sweep to
// operator-diverse workloads and bounded/parallel arms.
var sortCacheWorkloads = []struct {
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
}

// runSortCacheArm runs one exhaustive-strategy evaluation of workload w with
// the memo on or off, returning the run's I/O stats, result count, and memo
// counters.
func runSortCacheArm(p Params, w int, cached bool) (extmem.Stats, int64, opcache.Stats, error) {
	arm := p
	arm.NoMemo = !cached
	d := newDisk(arm)
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	restore := d.Suspend()
	g, in := sortCacheWorkloads[w].build(p, d, rng)
	restore()
	d.ResetStats()
	mode := core.MemoOn
	if !cached {
		mode = core.MemoOff
	}
	var n int64
	_, err := core.Run(g, in, countEmit(&n), core.Options{
		Strategy: core.StrategyExhaustive,
		Memo:     mode,
		// The A/B claim compares full Stats (reads/writes split included)
		// across memo modes, which only holds unpruned: a budget abort can
		// land mid-operator on a different point of the read/write split
		// under replay than under a real run (totals are clamped identically
		// either way). E25 covers the pruned side.
		NoPrune: true,
	})
	var cs opcache.Stats
	if m := opcache.Of(d); m != nil {
		cs = m.Stats()
	}
	return d.Stats(), n, cs, err
}

func runE23(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E23: charge-replay operator memo A/B (exhaustive strategy, sort-heavy)",
		Header: []string{"workload", "IOs (memo on)", "IOs (memo off)", "identical",
			"hits", "misses", "KB replayed"},
	}
	for w := range sortCacheWorkloads {
		on, nOn, cs, err := runSortCacheArm(p, w, true)
		if err != nil {
			return nil, err
		}
		off, nOff, _, err := runSortCacheArm(p, w, false)
		if err != nil {
			return nil, err
		}
		if on != off || nOn != nOff {
			return nil, fmt.Errorf("E23 %s: memo changed the simulation: on=%+v (%d rows), off=%+v (%d rows)",
				sortCacheWorkloads[w].name, on, nOn, off, nOff)
		}
		t.AddRow(sortCacheWorkloads[w].name, on.IOs(), off.IOs(), "yes",
			cs.Hits, cs.Misses, cs.BytesReplayed/1024)
	}
	t.Notes = append(t.Notes,
		"identical = every counter (reads, writes, hi-water) matches bit for bit; the memo only buys host time")
	return t, nil
}
