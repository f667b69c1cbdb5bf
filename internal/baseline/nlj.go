// Package baseline implements the comparison algorithms of Table 1: blocked
// nested-loop join (the worst-case optimal 2-relation algorithm and its
// naive n-relation generalization), external-memory Yannakakis with
// materialized pairwise joins (the Õ(|intermediates|/B) baseline the paper
// argues loses a factor of M in the emit model), the randomized
// grid-partition triangle and Loomis-Whitney joins matching the external
// bounds of [7,12] and [6], and an internal-memory worst-case-optimal
// Generic Join used both as the internal-memory column of Table 1 and as a
// correctness oracle.
package baseline

import (
	"fmt"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// Emit receives one join result; the assignment is reused across calls.
type Emit = func(tuple.Assignment)

// NestedLoop2 joins two relations sharing attribute a by blocked nested
// loops: O(N1/M · N2/B + N1/B) I/Os, worst-case optimal for 2 relations.
func NestedLoop2(rA, rB *relation.Relation, a tuple.Attr, nAttrs int, emit Emit) error {
	asg := tuple.NewAssignment(nAttrs)
	ca, cb := rA.Col(a), rB.Col(a)
	return rA.LoadChunks(func(c *relation.Chunk) error {
		idx := map[int64][]tuple.Tuple{}
		for _, t := range c.Rows() {
			idx[t[ca]] = append(idx[t[ca]], t)
		}
		rd := rB.Reader()
		for bt := rd.Next(); bt != nil; bt = rd.Next() {
			for _, at := range idx[bt[cb]] {
				bindPair(asg, rA.Schema(), at, rB.Schema(), bt, emit)
			}
		}
		return nil
	})
}

func bindPair(asg tuple.Assignment, sa tuple.Schema, ta tuple.Tuple, sb tuple.Schema, tb tuple.Tuple, emit Emit) {
	bind(asg, sa, ta, func() {
		bind(asg, sb, tb, func() { emit(asg) })
	})
}

func bind(asg tuple.Assignment, s tuple.Schema, t tuple.Tuple, next func()) {
	var mask uint64
	for i, a := range s {
		if !asg.Has(a) {
			asg.Set(a, t[i])
			mask |= 1 << uint(i)
		} else if asg.Get(a) != t[i] {
			return // inconsistent pair: not a join result
		}
	}
	next()
	for i, a := range s {
		if mask&(1<<uint(i)) != 0 {
			asg[a] = tuple.Unset
		}
	}
}

// NaiveMultiwayNLJ generalizes nested-loop join to n relations: relation 0
// is loaded in memory chunks, and for each chunk the remaining relations are
// joined recursively, giving Θ(Π N_i / (M^{n-1}·B)) I/Os in the worst case —
// the naive bound the paper's algorithms beat.
func NaiveMultiwayNLJ(g *hypergraph.Graph, in relation.Instance, emit Emit) error {
	edges := g.Edges()
	asg := tuple.NewAssignment(g.MaxAttr() + 1)
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(edges) {
			emit(asg)
			return nil
		}
		r := in[edges[i].ID]
		// Innermost relation: stream it rather than chunk it, so the last
		// level costs a scan per outer combination.
		if i == len(edges)-1 {
			rd := r.Reader()
			for t := rd.Next(); t != nil; t = rd.Next() {
				bind(asg, r.Schema(), t, func() {
					emit(asg)
				})
			}
			return nil
		}
		return r.LoadChunks(func(c *relation.Chunk) error {
			for _, t := range c.Rows() {
				var err error
				bind(asg, r.Schema(), t, func() {
					err = rec(i + 1)
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	if len(edges) == 0 {
		emit(asg)
		return nil
	}
	if len(edges) == 1 {
		r := in[edges[0].ID]
		rd := r.Reader()
		for t := rd.Next(); t != nil; t = rd.Next() {
			bind(asg, r.Schema(), t, func() { emit(asg) })
		}
		return nil
	}
	return rec(0)
}

// CrossProductMaterialize writes A × B to a new relation (used by external
// Yannakakis for disconnected components).
func CrossProductMaterialize(rA, rB *relation.Relation) (*relation.Relation, error) {
	schema := append(rA.Schema().Clone(), rB.Schema()...)
	b := relation.NewBuilder(rA.Disk(), schema)
	buf := make(tuple.Tuple, len(schema))
	err := rA.LoadChunks(func(c *relation.Chunk) error {
		rows := c.Rows()
		rd := rB.Reader()
		for bt := rd.Next(); bt != nil; bt = rd.Next() {
			for _, at := range rows {
				copy(buf, at)
				copy(buf[len(at):], bt)
				b.Add(buf)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Finish(), nil
}

// edgeByID is a small helper for baseline algorithms needing edge lookup.
func edgeByID(g *hypergraph.Graph, id int) (*hypergraph.Edge, error) {
	e := g.Edge(id)
	if e == nil {
		return nil, fmt.Errorf("baseline: no edge with ID %d", id)
	}
	return e, nil
}
