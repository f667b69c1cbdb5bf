package harness

import "fmt"

func init() {
	Register(&Experiment{
		ID:       "E25",
		Artifact: "branch-and-bound pruning of the round-robin simulation (implementation artifact)",
		Title:    "Pruning A/B (exhaustive strategy): aborted dry runs vs full Σ-branches, winner pinned",
		Run:      runE25,
	})
}

// runE25 compares sequential exhaustive runs with pruning on and off.
// Sequential on purpose: both arms are then fully deterministic, so the table
// reproduces byte for byte at any harness parallelism.
func runE25(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E25: branch-and-bound pruning A/B (sequential exhaustive strategy)",
		Header: []string{"workload", "branches", "pruned", "exec IOs", "planning IOs (pruned)",
			"planning IOs (full)", "saved %", "winner pinned"},
	}
	for w, wl := range memoWorkloads {
		full, err := runArm(p, w, arm{noPrune: true})
		if err != nil {
			return nil, err
		}
		// Pruning's correctness contract: the emitted result set, the winning
		// branch's execution cost, and the winning policy are unchanged.
		pr, err := runAgainst(p, w, arm{}, full, pinCount|pinExec|pinPolicy)
		if err != nil {
			return nil, fmt.Errorf("E25 %s: pruning changed the execution: %w", wl.name, err)
		}
		saved := 0.0
		if full.stats.IOs() > 0 {
			saved = 100 * float64(full.stats.IOs()-pr.stats.IOs()) / float64(full.stats.IOs())
		}
		t.AddRow(wl.name, pr.res.Branches, pr.res.Prune.Pruned, pr.res.ExecStats.IOs(),
			pr.stats.IOs(), full.stats.IOs(), fmt.Sprintf("%.1f", saved), "yes")
	}
	t.Notes = append(t.Notes,
		"pruned dry runs abort at the incumbent branch's cost; 'planning IOs' counts reduction + all dry runs + the winning re-run",
		"winner pinned = emitted rows, execution I/Os, and the winning policy match the unpruned run exactly (checked, not assumed)",
		"saved % understates at test scale: branch costs cluster, so aborts come late; the gap widens with branch count and skew")
	return t, nil
}
