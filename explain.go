package acyclicjoin

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/gens"
)

// Explanation reports the structural and cost analysis of a query for given
// relation sizes: the fractional edge cover and AGM bound (Section 2.2.1),
// the greedy minimum edge cover (Algorithm 6), the number of GenS branches,
// and Theorem 3's worst-case I/O bound min_branch max_S Ψ_wc(S).
type Explanation struct {
	// Acyclic is always true for built queries; retained for display.
	Acyclic bool
	// Shape names the detected query class ("line", "star", "other").
	Shape string
	// FractionalCover maps relation name to its cover weight (0 or 1 on
	// acyclic queries, per Lemma 2).
	FractionalCover map[string]float64
	// AGMLog2 is log2 of the AGM bound on the join size.
	AGMLog2 float64
	// MinCover is the greedy minimum edge cover (relation names).
	MinCover []string
	// Branches is the number of distinct GenS families.
	Branches int
	// BoundLog2 is log2 of the Theorem 3 worst-case I/O bound for the given
	// M and B.
	BoundLog2 float64
	// BindingSubjoin is the subset of relations whose Ψ attains the bound
	// in the best branch.
	BindingSubjoin []string
	// Balanced reports the Section 6.2 balance condition for line joins
	// (true for non-lines).
	Balanced bool
	// LinePlan describes the Section 6 routing for line joins.
	LinePlan string
	// MemoryAllowance is the memory, in tuples, a run may hold at once:
	// c·M with c = max(16, 2·|E|), one loaded chunk of under 2M tuples per
	// recursion level. A run that would hold more fails with a "memory
	// allowance exceeded" error.
	MemoryAllowance int
}

// Explain analyses the query under the given per-relation sizes and machine
// parameters (Memory/Block from opts; Strategy is ignored).
func Explain(q *Query, sizes map[string]float64, opts Options) (*Explanation, error) {
	opts = opts.withDefaults()
	sz := cover.Sizes{}
	for name, i := range q.relIndex {
		v, ok := sizes[name]
		if !ok {
			return nil, fmt.Errorf("acyclicjoin: Explain needs a size for relation %q", name)
		}
		sz[i] = v
	}
	ex := &Explanation{Acyclic: true, Balanced: true, MemoryAllowance: core.MemFactor(q.graph) * opts.Memory}

	x, agm, err := cover.Fractional(q.graph, sz)
	if err != nil {
		return nil, err
	}
	ex.AGMLog2 = agm
	ex.FractionalCover = map[string]float64{}
	for name, i := range q.relIndex {
		ex.FractionalCover[name] = x[i]
	}
	for _, id := range cover.GreedyMinCover(q.graph) {
		ex.MinCover = append(ex.MinCover, q.graph.Edge(id).Name)
	}
	sort.Strings(ex.MinCover)

	fams := gens.Branches(q.graph)
	ex.Branches = len(fams)
	bound, _, arg, err := gens.BestBound(q.graph, fams, sz, opts.Memory, opts.Block)
	if err != nil {
		return nil, err
	}
	ex.BoundLog2 = bound
	for _, id := range arg {
		ex.BindingSubjoin = append(ex.BindingSubjoin, q.graph.Edge(id).Name)
	}
	sort.Strings(ex.BindingSubjoin)

	switch {
	case q.IsLine():
		ex.Shape = "line"
		order, _ := q.graph.AsLine()
		lineSizes := make([]float64, len(order))
		for i, e := range order {
			lineSizes[i] = sz[e.ID]
		}
		if len(order)%2 == 1 {
			ex.Balanced = cover.IsBalancedOddLine(lineSizes)
		} else {
			_, ex.Balanced = cover.EvenLineSplit(lineSizes)
		}
		if plan, err := core.PlanLine(lineSizes); err == nil {
			ex.LinePlan = plan.Kind.String() + ": " + plan.Reason
		}
	case q.IsStar():
		ex.Shape = "star"
	default:
		ex.Shape = "other"
	}
	return ex, nil
}

// ExplainString renders the run outcome as a human-readable planning
// report: the executed plan, the branch and pruning counters, the I/O split
// between execution and planning, and — for StrategyGreedy — the per-choice
// score rationale the planner recorded at each decision point.
func (r *Result) ExplainString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", r.Plan)
	fmt.Fprintf(&b, "branches explored: %d\n", r.Branches)
	fmt.Fprintf(&b, "execution I/O: reads=%d writes=%d total=%d (mem hi-water %d tuples)\n",
		r.Stats.Reads, r.Stats.Writes, r.Stats.IOs, r.Stats.MemHiWater)
	fmt.Fprintf(&b, "planning I/O: %d (total incl. planning: %d)\n",
		r.PlanningStats.IOs-r.Stats.IOs, r.PlanningStats.IOs)
	if r.Prune.Started > 0 {
		fmt.Fprintf(&b, "pruning: %d branches started, %d pruned, %d completed (%d I/Os charged before aborts)\n",
			r.Prune.Started, r.Prune.Pruned, r.Prune.Completed, r.Prune.ChargedBeforeAbort)
	}
	for i, d := range r.Greedy {
		fmt.Fprintf(&b, "greedy decision %d (structure %s), probe cost %d I/Os:\n%s",
			i+1, d.Key, d.ProbeStats.IOs(), d.Rationale())
	}
	return b.String()
}

// String renders the explanation as a human-readable report.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shape: %s\n", e.Shape)
	fmt.Fprintf(&b, "AGM bound: 2^%.2f\n", e.AGMLog2)
	fmt.Fprintf(&b, "fractional cover: %v\n", e.FractionalCover)
	fmt.Fprintf(&b, "minimum edge cover: %s\n", strings.Join(e.MinCover, ", "))
	fmt.Fprintf(&b, "GenS branches: %d\n", e.Branches)
	fmt.Fprintf(&b, "memory allowance: %d tuples\n", e.MemoryAllowance)
	if !math.IsInf(e.BoundLog2, 0) {
		fmt.Fprintf(&b, "worst-case I/O bound (Theorem 3): 2^%.2f, binding subjoin {%s}\n",
			e.BoundLog2, strings.Join(e.BindingSubjoin, ", "))
	}
	if e.Shape == "line" {
		fmt.Fprintf(&b, "balanced: %v\n", e.Balanced)
		if e.LinePlan != "" {
			fmt.Fprintf(&b, "line plan: %s\n", e.LinePlan)
		}
	}
	return b.String()
}
