package harness

import (
	"fmt"

	"acyclicjoin/internal/core"
)

func init() {
	Register(&Experiment{
		ID:       "E28",
		Artifact: "greedy one-branch planner graded by the exhaustive oracle (implementation artifact)",
		Title:    "Greedy vs exhaustive: planning I/Os, plan-quality ratio, identical rows",
		Run:      runE28,
	})
}

// planningIOs is the strategy-agnostic planning overhead of a run: total
// charged I/Os minus the winning (or only) branch's execution I/Os. For the
// exhaustive strategy that is the dry-run sweep; for greedy it is the bounded
// probes — both charged through the same disk, so the comparison is honest.
func planningIOs(r *core.Result) int64 {
	return r.TotalStats.IOs() - r.ExecStats.IOs()
}

// runE28 grades the greedy planner against the exhaustive oracle on every
// memo workload. Both arms run sequentially, so the table reproduces byte for
// byte at any harness parallelism. Rows are compared by their order-free
// fingerprint, since the two strategies may interleave chunks differently.
func runE28(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E28: greedy planner vs exhaustive oracle (sequential, per memo workload)",
		Header: []string{"workload", "branches", "plan IOs greedy", "plan IOs exh", "plan %",
			"exec IOs greedy", "exec IOs best", "quality", "rows equal"},
	}
	for w, wl := range memoWorkloads {
		ex, err := runArm(p, w, arm{emit: true})
		if err != nil {
			return nil, fmt.Errorf("E28 %s exhaustive: %w", wl.name, err)
		}
		// The greedy plan must change only cost, never the answer.
		gr, err := runAgainst(p, w, arm{strategy: core.StrategyGreedy, emit: true}, ex, pinCount|pinSet)
		if err != nil {
			return nil, fmt.Errorf("E28 %s greedy: %w", wl.name, err)
		}
		planG, planE := planningIOs(gr.res), planningIOs(ex.res)
		planPct := "-"
		if planE > 0 {
			planPct = fmt.Sprintf("%.1f", 100*float64(planG)/float64(planE))
		}
		quality := "-"
		if ex.res.ExecStats.IOs() > 0 {
			quality = fmt.Sprintf("%.2f", float64(gr.res.ExecStats.IOs())/float64(ex.res.ExecStats.IOs()))
		}
		t.AddRow(wl.name, ex.res.Branches, planG, planE, planPct,
			gr.res.ExecStats.IOs(), ex.res.ExecStats.IOs(), quality, "yes")
	}
	t.Notes = append(t.Notes,
		"plan IOs = total charged I/Os minus the executed branch's I/Os: bounded probes for greedy, the pruned dry-run sweep for exhaustive",
		"quality = greedy-plan execution I/Os / exhaustive winner's execution I/Os (1.00 means greedy picked the optimal branch)",
		"rows equal = emitted multisets match via order-insensitive per-row FNV fingerprint; a mismatch aborts with an error")
	return t, nil
}
