package core

import (
	"fmt"
	"slices"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
)

// PlanKind names the algorithm a line-join plan routes to.
type PlanKind int

const (
	// PlanAcyclic runs Algorithm 2 (the general algorithm), optimal for
	// balanced lines, stars, and the other shapes of Sections 5-7.
	PlanAcyclic PlanKind = iota
	// PlanLine3 runs Algorithm 1.
	PlanLine3
	// PlanLine5Unbalanced runs Algorithm 4.
	PlanLine5Unbalanced
	// PlanLine7Unbalanced runs Algorithm 5.
	PlanLine7Unbalanced
	// PlanChunkedComposite peels end relations by memory chunks and runs a
	// smaller line plan inside (the paper's L6/L7-sandwich/L8 reductions).
	PlanChunkedComposite
)

func (k PlanKind) String() string {
	switch k {
	case PlanAcyclic:
		return "acyclic-join (Algorithm 2)"
	case PlanLine3:
		return "line-3 (Algorithm 1)"
	case PlanLine5Unbalanced:
		return "line-5 unbalanced (Algorithm 4)"
	case PlanLine7Unbalanced:
		return "line-7 unbalanced (Algorithm 5)"
	case PlanChunkedComposite:
		return "chunked composite"
	}
	return fmt.Sprintf("PlanKind(%d)", int(k))
}

// LinePlan describes how a line join will be evaluated.
type LinePlan struct {
	Kind PlanKind
	// Cover is the optimal 0/1 edge cover in path order.
	Cover []int
	// Balanced reports condition (6) (odd n) or the Theorem 6 split (even).
	Balanced bool
	// OuterFirst / OuterLast mark end relations peeled by chunks in a
	// composite plan (paper indices: 1 and n).
	OuterFirst, OuterLast bool
	// Reason is a human-readable routing explanation.
	Reason string
}

// PlanLine decides, per Section 6, which algorithm evaluates an n-relation
// line join with the given sizes optimally. sizes[i] = N_{i+1} in path
// order.
func PlanLine(sizes []float64) (*LinePlan, error) {
	n := len(sizes)
	x, _, err := cover.LineCover(sizes)
	if err != nil {
		return nil, err
	}
	p := &LinePlan{Cover: x}
	switch {
	case n <= 2:
		p.Kind, p.Balanced = PlanAcyclic, true
		p.Reason = "trivial line"
	case n == 3:
		p.Kind, p.Balanced = PlanLine3, true
		p.Reason = "L3 is always balanced on fully reduced instances (Theorem 1)"
	case n == 4:
		p.Kind, p.Balanced = PlanAcyclic, true
		p.Reason = "L4 always splits into balanced L1+L3 (Theorem 6); best peeling via exhaustive branches"
	case n%2 == 1:
		if cover.IsBalancedOddLine(sizes) {
			p.Kind, p.Balanced = PlanAcyclic, true
			p.Reason = "balanced odd line (Theorem 5)"
		} else if n == 5 {
			p.Kind = PlanLine5Unbalanced
			p.Reason = "unbalanced L5 (Section 6.3, Algorithm 4)"
		} else if n == 7 {
			if isSandwichCover(x) {
				p.Kind = PlanChunkedComposite
				p.OuterFirst, p.OuterLast = true, true
				p.Reason = "L7 cover (1,1,0,1,0,1,1): chunk R1 and R7 around an unbalanced middle L5 (Section 6.3)"
			} else {
				p.Kind = PlanLine7Unbalanced
				p.Reason = "unbalanced L7 with alternating cover (Section 6.3, Algorithm 5)"
			}
		} else {
			p.Kind = PlanAcyclic
			p.Reason = "n >= 9 unbalanced: no known optimal algorithm (open problem); falling back to Algorithm 2"
		}
	default: // even n >= 6
		if _, ok := cover.EvenLineSplit(sizes); ok {
			p.Kind, p.Balanced = PlanAcyclic, true
			p.Reason = "even line with balanced split (Theorem 6)"
		} else if n == 6 {
			p.Kind = PlanChunkedComposite
			// Cover (1,0,1,0,1,1): the unbalanced L5 is the prefix; chunk
			// the last relation. Mirror for (1,1,0,1,0,1).
			if x[len(x)-2] == 1 {
				p.OuterLast = true
			} else {
				p.OuterFirst = true
			}
			p.Reason = "unbalanced L6: chunk an end relation over Algorithm 4 (Section 6.3)"
		} else {
			p.Kind = PlanChunkedComposite
			p.OuterLast = true
			p.Reason = "L8: reduce to a smaller line join by chunking an end relation (Section 6.3)"
		}
	}
	return p, nil
}

// isSandwichCover reports the (1,1,0,1,0,...,0,1,1) shape on an L7 cover.
func isSandwichCover(x []int) bool {
	n := len(x)
	return n == 7 && x[0] == 1 && x[1] == 1 && x[n-2] == 1 && x[n-1] == 1
}

// RunLine evaluates a line join with the plan chosen by PlanLine, which it
// reports in Result.Line. The instance should be fully reduced for the
// optimality guarantees (correctness holds regardless).
//
// The dispatcher commits to a single plan up front — it explores no dry-run
// branches, so Branches is 1 and TotalStats equals ExecStats, everything it
// charged — but opts flows through to every nested Run call (the PlanAcyclic
// route and Algorithm 5's residual query), so the strategy, pruning and memo
// options still apply wherever Algorithm 2 is reached from here, and its
// Result stays deterministic. Its row loops are Algorithm 2's executor's, so
// a nil emit counts the results into Result.Emitted, as it does for Run.
func RunLine(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options) (*Result, error) {
	order, ok := g.AsLine()
	if !ok {
		return nil, fmt.Errorf("core: %v is not a line join", g)
	}
	disk := anyDisk(g, in)
	applyMemo(disk, opts)
	res := &Result{Branches: 1}
	sizes := lineSizes(order, in)
	if slices.Contains(sizes, 0) {
		// An empty relation empties the whole (connected) join.
		res.Line = &LinePlan{Kind: PlanAcyclic, Balanced: true, Reason: "empty relation: no results"}
		return res, nil
	}
	plan, err := PlanLine(sizes)
	if err != nil {
		return nil, err
	}
	res.Line = plan
	x := newExecutor(g, emit, opts, nil, nil)
	// The specialized line plans run outside Run's CatchAbort, so give them
	// their own.
	return guarded(disk, func() (*Result, error) {
		st, err := measure(disk, func() error {
			reads, done := x.start()
			return x.linePlan(plan, g, order, in, reads, done)
		})
		if err != nil {
			return nil, err
		}
		res.Emitted, res.ExecStats, res.TotalStats = x.emitted, st, st
		return res, nil
	})
}

// lineSizes returns the relation sizes of a line's edges in path order.
func lineSizes(order []*hypergraph.Edge, in relation.Instance) []float64 {
	sizes := make([]float64, len(order))
	for i, e := range order {
		sizes[i] = float64(in[e.ID].Len())
	}
	return sizes
}

// linePlan evaluates the line (g, in), whose edges are order in path order,
// with plan, reporting its results to done the way join does.
func (x *executor) linePlan(plan *LinePlan, g *hypergraph.Graph, order []*hypergraph.Edge, in relation.Instance, reads uint64, done func(int64)) error {
	switch plan.Kind {
	case PlanAcyclic:
		return x.nested(g, in, reads, done)
	case PlanLine3:
		return x.line3(g, in, reads, done)
	case PlanLine5Unbalanced:
		return x.line5(g, in, reads, done)
	case PlanLine7Unbalanced:
		return x.line7(g, in, reads, done)
	case PlanChunkedComposite:
		return x.composite(plan, g, order, in, reads, done)
	}
	return fmt.Errorf("core: unknown plan kind %v", plan.Kind)
}

// composite peels chunked outer relations off one or both ends and plans the
// inner line join recursively.
func (x *executor) composite(plan *LinePlan, g *hypergraph.Graph, order []*hypergraph.Edge, in relation.Instance, reads uint64, done func(int64)) error {
	lo, hi := 0, len(order) // inner edge range [lo, hi)
	if plan.OuterFirst {
		lo++
	}
	if plan.OuterLast {
		hi--
	}
	innerOrder := order[lo:hi]
	innerG := g.Subgraph(hypergraph.EdgeIDs(innerOrder))
	ip, err := PlanLine(lineSizes(innerOrder, in))
	if err != nil {
		return err
	}
	run := body(func(reads uint64, done func(int64)) error {
		return x.linePlan(ip, innerG, innerOrder, in, reads, done)
	})
	// Wrap outer relations outermost-last so the chunk loops nest.
	if n := len(order); plan.OuterLast {
		run = x.chunked(in[order[n-1].ID], hypergraph.SharedAttr(order[n-2], order[n-1]), run)
	}
	if plan.OuterFirst {
		run = x.chunked(in[order[0].ID], hypergraph.SharedAttr(order[0], order[1]), run)
	}
	return run(reads, done)
}
