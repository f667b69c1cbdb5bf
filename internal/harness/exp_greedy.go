package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/tuple"
)

func init() {
	Register(&Experiment{
		ID:       "E28",
		Artifact: "greedy one-branch planner graded by the exhaustive oracle (implementation artifact)",
		Title:    "Greedy vs exhaustive: planning I/Os, plan-quality ratio, identical rows",
		Run:      runE28,
	})
}

// greedyArm is one strategy's measurement on a memo workload: the core
// Result, the emitted row count, and an order-insensitive fingerprint of the
// emitted rows. Rows are fingerprinted rather than collected so the
// comparison stays O(1) memory at any scale; the fingerprint is a
// wrap-around sum of per-row FNV-1a hashes, which is insensitive to emission
// order (the two strategies may interleave chunks differently).
type greedyArm struct {
	res  *core.Result
	rows int64
	fp   uint64
}

// runGreedyArm runs one sequential evaluation of memo workload w under the
// given strategy. Sequential on purpose: both arms are then deterministic,
// so the E28 table reproduces byte for byte at any harness parallelism.
func runGreedyArm(p Params, w int, strategy core.Strategy) (greedyArm, error) {
	d := newDisk(p)
	rng := rand.New(rand.NewSource(p.Seed + int64(w)))
	restore := d.Suspend()
	g, in := memoWorkloads[w].build(p, d, rng)
	restore()
	d.ResetStats()
	var arm greedyArm
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		h := fnv.New64a()
		h.Write([]byte(a.String()))
		arm.fp += h.Sum64()
		arm.rows++
	}, core.Options{Strategy: strategy})
	arm.res = r
	return arm, err
}

// planningIOs is the strategy-agnostic planning overhead of a run: total
// charged I/Os minus the winning (or only) branch's execution I/Os. For the
// exhaustive strategy that is the dry-run sweep; for greedy it is the bounded
// probes — both charged through the same disk, so the comparison is honest.
func planningIOs(r *core.Result) int64 {
	return r.TotalStats.IOs() - r.ExecStats.IOs()
}

func runE28(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E28: greedy planner vs exhaustive oracle (sequential, per memo workload)",
		Header: []string{"workload", "branches", "plan IOs greedy", "plan IOs exh", "plan %",
			"exec IOs greedy", "exec IOs best", "quality", "rows equal"},
	}
	for w := range memoWorkloads {
		gr, err := runGreedyArm(p, w, core.StrategyGreedy)
		if err != nil {
			return nil, fmt.Errorf("E28 %s greedy: %w", memoWorkloads[w].name, err)
		}
		ex, err := runGreedyArm(p, w, core.StrategyExhaustive)
		if err != nil {
			return nil, fmt.Errorf("E28 %s exhaustive: %w", memoWorkloads[w].name, err)
		}
		// The greedy plan must change only cost, never the answer.
		if gr.rows != ex.rows || gr.fp != ex.fp {
			return nil, fmt.Errorf("E28 %s: greedy emitted %d rows (fp %x), exhaustive %d (fp %x)",
				memoWorkloads[w].name, gr.rows, gr.fp, ex.rows, ex.fp)
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
		t.AddRow(memoWorkloads[w].name, ex.res.Branches, planG, planE, planPct,
			gr.res.ExecStats.IOs(), ex.res.ExecStats.IOs(), quality, "yes")
	}
	t.Notes = append(t.Notes,
		"plan IOs = total charged I/Os minus the executed branch's I/Os: bounded probes for greedy, the pruned dry-run sweep for exhaustive",
		"quality = greedy-plan execution I/Os / exhaustive winner's execution I/Os (1.00 means greedy picked the optimal branch)",
		"rows equal = emitted multisets match via order-insensitive per-row FNV fingerprint; a mismatch aborts with an error")
	return t, nil
}
