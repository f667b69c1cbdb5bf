package relation

import (
	"fmt"
	"sort"

	"acyclicjoin/internal/hypergraph"
)

// Instance maps edge IDs to their relations: the function R of the paper's
// problem definition. Instances are cheap to copy shallowly; the recursion in
// Algorithm 2 derives sub-instances by replacing entries with views.
type Instance map[int]*Relation

// Clone returns a shallow copy (relations shared).
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Validate checks that every edge of g has a relation whose schema covers
// exactly the edge's attributes (as a set; column order is free). Relations
// are allowed to carry extra columns for attributes no longer in the edge —
// Algorithm 2's recursion removes attributes from the query without
// physically projecting the relations — so only the inclusion
// edge ⊆ schema is enforced on subqueries; use strict=true at the top level.
func (in Instance) Validate(g *hypergraph.Graph, strict bool) error {
	for _, e := range g.Edges() {
		r, ok := in[e.ID]
		if !ok {
			return fmt.Errorf("relation: instance missing edge %s (id %d)", e.Name, e.ID)
		}
		for _, a := range e.Attrs {
			if !r.Schema().Contains(a) {
				return fmt.Errorf("relation: edge %s attribute v%d missing from schema %v", e.Name, a, r.Schema())
			}
		}
		if strict && len(r.Schema()) != len(e.Attrs) {
			return fmt.Errorf("relation: edge %s has schema %v, want exactly attrs %v", e.Name, r.Schema(), e.Attrs)
		}
	}
	return nil
}

// TotalSize returns the sum of relation sizes over the edges of g.
func (in Instance) TotalSize(g *hypergraph.Graph) int {
	total := 0
	for _, e := range g.Edges() {
		total += in[e.ID].Len()
	}
	return total
}

// AnyEmpty reports whether some edge of g has an empty relation (making the
// whole join empty when g is connected).
func (in Instance) AnyEmpty(g *hypergraph.Graph) bool {
	for _, e := range g.Edges() {
		if in[e.ID].Len() == 0 {
			return true
		}
	}
	return false
}

// Sizes returns N(e) per edge ID as float64s (for bound formulas).
func (in Instance) Sizes(g *hypergraph.Graph) map[int]float64 {
	out := map[int]float64{}
	for _, e := range g.Edges() {
		out[e.ID] = float64(in[e.ID].Len())
	}
	return out
}

// SortedEdgeIDs returns the edge IDs of g in ascending order; handy for
// deterministic iteration over instances.
func SortedEdgeIDs(g *hypergraph.Graph) []int {
	ids := make([]int, 0, g.NumEdges())
	for _, e := range g.Edges() {
		ids = append(ids, e.ID)
	}
	sort.Ints(ids)
	return ids
}
