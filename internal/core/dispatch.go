package core

import (
	"fmt"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/extmem"
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

// RunLine evaluates a line join with the plan chosen by PlanLine, returning
// the plan used. The instance should be fully reduced for the optimality
// guarantees (correctness holds regardless).
//
// The dispatcher itself commits to a single plan up front — it explores no
// dry-run branches — but opts flows through to every nested Run call (the
// PlanAcyclic route and the inner plans of chunked composites), so the
// strategy, pruning and memo options still apply wherever Algorithm 2 is
// reached from here, and its Result stays deterministic.
func RunLine(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options) (*LinePlan, error) {
	order, ok := g.AsLine()
	if !ok {
		return nil, fmt.Errorf("core: %v is not a line join", g)
	}
	disk := anyDisk(g, in)
	applyMemo(disk, opts)
	sizes := make([]float64, len(order))
	for i, e := range order {
		sizes[i] = float64(in[e.ID].Len())
		if sizes[i] == 0 {
			// An empty relation empties the whole (connected) join.
			return &LinePlan{Kind: PlanAcyclic, Balanced: true,
				Reason: "empty relation: no results"}, nil
		}
	}
	plan, err := PlanLine(sizes)
	if err != nil {
		return nil, err
	}
	if disk == nil {
		if err := runLinePlan(plan, g, order, in, emit, opts); err != nil {
			return nil, err
		}
		return plan, nil
	}
	// The specialized line plans run outside Run's CatchAbort, so give them
	// their own: permanent faults and cancellation unwind the disk here and
	// surface as typed errors instead of panics.
	pruned, err := disk.CatchAbort(func() error {
		return runLinePlan(plan, g, order, in, emit, opts)
	})
	if err != nil {
		return nil, err
	}
	if pruned {
		return nil, fmt.Errorf("core: charge budget leaked into the line run: %w", extmem.ErrBudgetExceeded)
	}
	return plan, nil
}

func runLinePlan(plan *LinePlan, g *hypergraph.Graph, order []*hypergraph.Edge, in relation.Instance, emit Emit, opts Options) error {
	switch plan.Kind {
	case PlanAcyclic:
		_, err := Run(g, in, emit, opts)
		return err
	case PlanLine3:
		return Line3(g, in, emit)
	case PlanLine5Unbalanced:
		return Line5Unbalanced(g, in, emit)
	case PlanLine7Unbalanced:
		return Line7Unbalanced(g, in, emit, opts)
	case PlanChunkedComposite:
		return runComposite(plan, g, order, in, emit, opts)
	}
	return fmt.Errorf("core: unknown plan kind %v", plan.Kind)
}

// runComposite peels chunked outer relations off one or both ends and
// recursively plans the inner line join.
func runComposite(plan *LinePlan, g *hypergraph.Graph, order []*hypergraph.Edge, in relation.Instance, emit Emit, opts Options) error {
	lo, hi := 0, len(order) // inner edge range [lo, hi)
	if plan.OuterFirst {
		lo++
	}
	if plan.OuterLast {
		hi--
	}
	innerIDs := hypergraph.EdgeIDs(order[lo:hi])
	innerG := g.Subgraph(innerIDs)
	innerOrder := order[lo:hi]
	inner := func(e Emit) error {
		innerSizes := make([]float64, len(innerOrder))
		for i, ed := range innerOrder {
			innerSizes[i] = float64(in[ed.ID].Len())
		}
		ip, err := PlanLine(innerSizes)
		if err != nil {
			return err
		}
		return runLinePlan(ip, innerG, innerOrder, in, e, opts)
	}
	// Wrap outer relations outermost-last so the chunk loops nest.
	run := inner
	if plan.OuterLast {
		e := order[len(order)-1]
		shared := hypergraph.SharedAttr(order[len(order)-2], e)
		outerRel := in[e.ID]
		prev := run
		run = func(em Emit) error {
			return ChunkedOuterJoin(outerRel, shared, prev, em)
		}
	}
	if plan.OuterFirst {
		e := order[0]
		shared := hypergraph.SharedAttr(e, order[1])
		outerRel := in[e.ID]
		prev := run
		run = func(em Emit) error {
			return ChunkedOuterJoin(outerRel, shared, prev, em)
		}
	}
	return run(emit)
}
