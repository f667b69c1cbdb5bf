package harness

import (
	"fmt"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/opcache"
)

func init() {
	Register(&Experiment{
		ID:       "E24",
		Artifact: "operator memo with branch-prefix reuse (implementation artifact)",
		Title:    "Memo A/B across operator-diverse workloads: off vs on vs bounded, all bit-identical",
		Run:      runE24,
	})
}

// The memo A/B arms of E23 and E24 run unpruned: full-stats bit-identity
// (reads/writes split included) across memo modes only holds unpruned, since
// a budget abort can land mid-operator on a different point of the
// read/write split under replay than under a real run (totals are clamped
// identically either way). E25 covers the pruned side.
var (
	memoOffArm = arm{memo: core.MemoOff, noPrune: true}
	memoOnArm  = arm{noPrune: true}
)

// e24BoundedLimits is the deliberately tight budget of E24's bounded arm:
// small enough to force evictions on every workload, proving eviction only
// costs recomputation and never changes a counter.
var e24BoundedLimits = opcache.Limits{MaxEntries: 4}

func runE24(p Params) (*Table, error) {
	p = p.WithDefaults()
	p.NoMemo = false // each arm pins its own memo mode
	t := &Table{
		Title: "E24: operator memo A/B (exhaustive strategy): off vs on vs bounded(4 entries)",
		Header: []string{"workload", "IOs", "identical", "hits", "misses",
			"KB replayed", "evictions (bounded)"},
	}
	for w, wl := range memoWorkloads {
		ref, err := runArm(p, w, memoOffArm)
		if err != nil {
			return nil, err
		}
		on, err := runAgainst(p, w, memoOnArm, ref, pinCount|pinStats)
		if err != nil {
			return nil, fmt.Errorf("E24 %s arm on: %w", wl.name, err)
		}
		bounded, err := runAgainst(p, w, arm{limits: e24BoundedLimits, noPrune: true}, ref, pinCount|pinStats)
		if err != nil {
			return nil, fmt.Errorf("E24 %s arm bounded: %w", wl.name, err)
		}
		t.AddRow(wl.name, ref.stats.IOs(), "yes",
			on.memo.Hits, on.memo.Misses, on.memo.BytesReplayed/1024, bounded.memo.Evictions)
	}
	t.Notes = append(t.Notes,
		"identical = reads, writes, hi-water, and result counts match the memo-off reference bit for bit in every arm",
		"bounded arm caps the memo at 4 entries (LRU): evictions cost recomputation only, never a counter")
	return t, nil
}
