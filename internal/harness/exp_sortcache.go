package harness

import "fmt"

func init() {
	Register(&Experiment{
		ID:       "E23",
		Artifact: "charge-replay operator memo (implementation artifact)",
		Title:    "Memo A/B on sort-heavy runs: simulated I/O bit-identical with the memo on and off",
		Run:      runE23,
	})
}

// runE23 is the historical memo A/B on the first two memo workloads:
// exhaustive-strategy runs whose dry-run branches re-sort the same relations,
// so the memo has real work to absorb. E24 widens the sweep to every memo
// workload and a bounded arm.
func runE23(p Params) (*Table, error) {
	p = p.WithDefaults()
	p.NoMemo = false // each arm pins its own memo mode
	t := &Table{
		Title: "E23: charge-replay operator memo A/B (exhaustive strategy, sort-heavy)",
		Header: []string{"workload", "IOs (memo on)", "IOs (memo off)", "identical",
			"hits", "misses", "KB replayed"},
	}
	for w, wl := range memoWorkloads[:2] {
		off, err := runArm(p, w, memoOffArm)
		if err != nil {
			return nil, err
		}
		on, err := runAgainst(p, w, memoOnArm, off, pinCount|pinStats)
		if err != nil {
			return nil, fmt.Errorf("E23 %s: memo on: %w", wl.name, err)
		}
		t.AddRow(wl.name, on.stats.IOs(), off.stats.IOs(), "yes",
			on.memo.Hits, on.memo.Misses, on.memo.BytesReplayed/1024)
	}
	t.Notes = append(t.Notes,
		"identical = every counter (reads, writes, hi-water) matches bit for bit; the memo only buys host time")
	return t, nil
}
