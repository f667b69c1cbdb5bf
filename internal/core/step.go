package core

import (
	"maps"
	"slices"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
)

// A step is Algorithm 2's analysis of one subquery structure: which edge the
// recursion removes next and the subquery it recurses on. It depends on the
// hypergraph alone, never on the data, so a Run analyses each structure once
// in a stepTable, and every executor of the Run (each dry branch, the wet
// re-run, the single-branch path and greedy) walks the same steps. A step
// builds its child steps on first visit and keeps them, so a recursion that
// visits a structure again, on another chunk, heavy value or branch, does no
// graph work at all.
type step struct {
	t    *stepTable
	g    *hypergraph.Graph
	key  string // structureKey(g)
	kind stepKind
	// edge is the base case's edge, or the first bud or island in edge
	// order.
	edge *hypergraph.Edge
	// v and gamma are a bud's join attribute and neighbours.
	v     hypergraph.Attr
	gamma []*hypergraph.Edge
	// rest is the step of g without edge, for a bud or an island; nil until
	// first visited.
	rest *step
	// leaves are the peelable leaves of a stepLeaves, in edge order, and
	// peels their analyses, filled in per leaf index on first use.
	leaves []*hypergraph.Edge
	peels  []*leafPeel
}

// stepKind is what Algorithm 2 does with a subquery, in the order it checks.
type stepKind int

const (
	stepEmpty  stepKind = iota // no edge left: one empty result
	stepBase                   // one edge: scan it
	stepBud                    // drop the first bud, filtering its neighbours
	stepIsland                 // cross the first island with the rest
	stepLeaves                 // peel one of the leaves
	stepStuck                  // none of the above: the query is cyclic
)

// leafPeel is the analysis of peeling one leaf e: its join attribute v, its
// unique attributes u, its neighbours Γ(e), and the steps of the two
// residues, g without e, u and v (heavy values) and g without e and u
// (light values).
type leafPeel struct {
	v            hypergraph.Attr
	u            []hypergraph.Attr
	gamma        []*hypergraph.Edge
	heavy, light *step
}

// stepTable holds one Run's steps, one per subquery structure, and the
// scratch sub-instances and chunk matchers its executors recurse on.
type stepTable struct {
	byKey map[string]*step
	// subs[d] is the sub-instance of the bud or peel running at recursion
	// depth d, and matches[d] the matcher of that peel's current light
	// chunk. Only one runs at each depth at a time, and the executors of a
	// Run run one after another, so one of each per depth serves them all.
	subs    []relation.Instance
	matches []*chunkMatch
}

func newStepTable() *stepTable {
	return &stepTable{byKey: map[string]*step{}}
}

// sub returns the scratch sub-instance of recursion depth d, reset to a
// copy of in. The instance a join at depth d reads is the caller's or that
// of a depth above d, never this one.
func (t *stepTable) sub(d int, in relation.Instance) relation.Instance {
	for len(t.subs) <= d {
		t.subs = append(t.subs, relation.Instance{})
	}
	s := t.subs[d]
	clear(s)
	maps.Copy(s, in)
	return s
}

// match returns the chunk matcher of recursion depth d.
func (t *stepTable) match(d int) *chunkMatch {
	for len(t.matches) <= d {
		m := &chunkMatch{}
		m.fn = m.match
		t.matches = append(t.matches, m)
	}
	return t.matches[d]
}

// of returns the step of g, analysing g if its structure is new to the
// table. Every subquery derives from the Run's query by Without, which keeps
// edge order, so two graphs with one structure key list the same edges in
// the same order and share a step.
func (t *stepTable) of(g *hypergraph.Graph) *step {
	key := structureKey(g)
	if s, ok := t.byKey[key]; ok {
		return s
	}
	s := &step{t: t, g: g, key: key}
	t.byKey[key] = s
	edges := g.Edges()
	switch len(edges) {
	case 0:
		s.kind = stepEmpty
		return s
	case 1:
		s.kind, s.edge = stepBase, edges[0]
		return s
	}
	kinds := make([]hypergraph.Kind, len(edges))
	for i, e := range edges {
		kinds[i] = g.KindOf(e)
	}
	if i := slices.Index(kinds, hypergraph.Bud); i >= 0 {
		s.kind, s.edge = stepBud, edges[i]
		s.v, s.gamma = g.LeafJoinAttr(s.edge), g.Neighbors(s.edge)
		return s
	}
	if i := slices.Index(kinds, hypergraph.Island); i >= 0 {
		s.kind, s.edge = stepIsland, edges[i]
		return s
	}
	for i, e := range edges {
		if kinds[i] == hypergraph.Leaf {
			s.leaves = append(s.leaves, e)
		}
	}
	s.kind = stepStuck
	if len(s.leaves) > 0 {
		s.kind = stepLeaves
		s.peels = make([]*leafPeel, len(s.leaves))
	}
	return s
}

// next returns the step of a bud's or island's subquery: g without edge.
func (s *step) next() *step {
	if s.rest == nil {
		s.rest = s.t.of(s.g.Without([]int{s.edge.ID}, nil))
	}
	return s.rest
}

// peel returns the analysis of peeling leaf i.
func (s *step) peel(i int) *leafPeel {
	if p := s.peels[i]; p != nil {
		return p
	}
	e := s.leaves[i]
	p := &leafPeel{v: s.g.LeafJoinAttr(e), u: s.g.UniqueAttrs(e), gamma: s.g.Neighbors(e)}
	p.heavy = s.t.of(s.g.Without([]int{e.ID}, append(append([]hypergraph.Attr{}, p.u...), p.v)))
	p.light = s.t.of(s.g.Without([]int{e.ID}, p.u))
	s.peels[i] = p
	return p
}

// branchFree reports whether the exhaustive odometer from step s can only
// ever hold one branch: no reachable subquery structure offers more than one
// peelable leaf. It follows the executor's structural order but takes BOTH
// residues of a peel unconditionally — which residues a concrete run visits
// depends on the data, so this is a superset of the reachable decision points
// and the answer true is always safe. Each step is visited once, bounding the
// walk the same way the odometer's decision map is bounded.
func branchFree(s *step, disableSplit bool) bool {
	seen := map[*step]bool{}
	var walk func(s *step) bool
	walk = func(s *step) bool {
		if s.kind == stepEmpty || s.kind == stepBase || seen[s] {
			return true
		}
		seen[s] = true
		switch s.kind {
		case stepBud, stepIsland:
			return walk(s.next())
		case stepLeaves:
			if len(s.leaves) > 1 {
				return false // a real decision point: more than one leaf
			}
			p := s.peel(0)
			if !disableSplit && !walk(p.heavy) {
				return false
			}
			return walk(p.light)
		}
		return false // no peelable edge: let the real run raise the error
	}
	return walk(s)
}
