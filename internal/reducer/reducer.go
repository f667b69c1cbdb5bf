// Package reducer implements Yannakakis' full reducer in external memory:
// two sweeps of sort-merge semijoins over a join forest of the acyclic query
// (child-to-root, then root-to-child) remove every dangling tuple. After
// reduction, each remaining tuple participates in at least one join result,
// the property the paper's optimality analysis assumes ("fully reduced
// instances").
//
// The cost is O(sort(N)) I/Os: each relation is sorted O(1) times and each
// forest link performs two linear merge passes. The sorts are charged under
// the "sort" phase. A relation the upward sweep sorted as a source is the
// downward sweep's destination on the same attribute, so that sort is done
// once and kept. An upward destination is sorted only to be merged, so its
// sort streams into its semijoin (relation.Semijoin on an unsorted left
// side) and the sorted copy is never written or read back: 2⌈n/B⌉ less per
// upward link whose destination needs a sort. The reduced instance is the
// same, relation by relation, as with a written copy.
package reducer

import (
	"fmt"
	"slices"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
)

// FullReduce returns a fully reduced copy of the instance (input relations
// untouched). The query must be Berge-acyclic. I/Os are charged under the
// "reduce" phase label when phase accounting is enabled.
func FullReduce(g *hypergraph.Graph, in relation.Instance) (out relation.Instance, err error) {
	if err := in.Validate(g, false); err != nil {
		return nil, err
	}
	for _, e := range g.Edges() {
		in[e.ID].Disk().WithPhase("reduce", func() {
			out, err = fullReduce(g, in)
		})
		return out, err
	}
	return fullReduce(g, in)
}

func fullReduce(g *hypergraph.Graph, in relation.Instance) (relation.Instance, error) {
	parent, order, err := g.JoinForest()
	if err != nil {
		return nil, err
	}
	edges := g.Edges()
	out := in.Clone()

	// A relation the upward sweep sorted as a source is sorted by the same
	// attribute again as the downward sweep's target, unchanged in between,
	// so each sort is kept for its relation and attribute. The sorted copies
	// only feed the semijoins: a relation no semijoin reduces stays the file
	// it came in as.
	type sortKey struct {
		r *relation.Relation
		a hypergraph.Attr
	}
	sorts := map[sortKey]*relation.Relation{}
	sortBy := func(r *relation.Relation, a hypergraph.Attr) (*relation.Relation, error) {
		k := sortKey{r, a}
		if s, ok := sorts[k]; ok {
			return s, nil
		}
		s, err := r.SortBy(a)
		if err != nil {
			return nil, err
		}
		sorts[k] = s
		return s, nil
	}

	// semi reduces dst by src. The source is sorted (and kept) first, so
	// only one sort holds memory at a time. An upward destination not yet
	// sorted by a goes to Semijoin unsorted, which sorts it in the merge; one
	// sorted by a some other way is re-sorted first, as SortBy would.
	semi := func(dst, src int, up bool) error {
		de, se := edges[dst], edges[src]
		a := hypergraph.SharedAttr(de, se)
		if a < 0 {
			return fmt.Errorf("reducer: forest link %s-%s without shared attribute", de, se)
		}
		sr, err := sortBy(out[se.ID], a)
		if err != nil {
			return err
		}
		dr := out[de.ID]
		if !up || dr.SortedByAttr(a) {
			if dr, err = sortBy(dr, a); err != nil {
				return err
			}
		}
		red, err := relation.Semijoin(dr, sr, a)
		if err != nil {
			return err
		}
		out[de.ID] = red
		return nil
	}

	// Upward sweep: children reduce parents, processing in reverse preorder
	// so deeper nodes are applied first.
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if p := parent[u]; p >= 0 {
			if err := semi(p, u, true); err != nil {
				return nil, err
			}
		}
	}
	// Downward sweep: parents reduce children, in preorder.
	for _, u := range order {
		if p := parent[u]; p >= 0 {
			if err := semi(u, p, false); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// IsFullyReduced reports whether every tuple of every relation agrees with
// at least one tuple in each neighbouring relation (the pairwise-consistency
// consequence of full reduction that the algorithms rely on). Verification
// helper; charges its scans.
func IsFullyReduced(g *hypergraph.Graph, in relation.Instance) (bool, error) {
	for _, a := range g.Attrs() {
		es := g.EdgesWith(a)
		if len(es) < 2 {
			continue
		}
		// Distinct a-values must agree across all edges containing a: in a
		// fully reduced Berge-acyclic instance, each relation's value set on
		// a shared attribute is identical.
		var base []int64
		for i, e := range es {
			vals, err := relation.DistinctValues(in[e.ID], a)
			if err != nil {
				return false, err
			}
			if i == 0 {
				base = vals
			} else if !slices.Equal(base, vals) {
				return false, nil
			}
		}
	}
	return true, nil
}
