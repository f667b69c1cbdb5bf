package core

import (
	"fmt"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// lineParts validates that g is a line join of length n and returns its
// edges in path order together with the attribute path a_0..a_n
// (a_{i-1}, a_i being the attributes of the i-th edge).
func lineParts(g *hypergraph.Graph, n int) ([]*hypergraph.Edge, []hypergraph.Attr, error) {
	order, ok := g.AsLine()
	if !ok || len(order) != n {
		return nil, nil, fmt.Errorf("core: query %v is not an L%d line join", g, n)
	}
	attrs := make([]hypergraph.Attr, 0, n+1)
	if n == 1 {
		return order, order[0].Attrs, nil
	}
	// First attribute: the end of edge 0 not shared with edge 1.
	shared := hypergraph.SharedAttr(order[0], order[1])
	for _, a := range order[0].Attrs {
		if a != shared {
			attrs = append(attrs, a)
		}
	}
	attrs = append(attrs, shared)
	for i := 1; i < n; i++ {
		prev := attrs[len(attrs)-1]
		for _, a := range order[i].Attrs {
			if a != prev {
				attrs = append(attrs, a)
			}
		}
	}
	return order, attrs, nil
}

// Line3 implements Algorithm 1, the Õ(N1·N3/(M·B))-I/O 3-relation line join
// R1(v0,v1) ⋈ R2(v1,v2) ⋈ R3(v2,v3). Light values of v1 in R1 are processed
// in ≤2M-tuple chunks with an instance-optimal merge join of R2(M1) against
// R3; the heavy values the same pass finds then each materialize
// R2|v1=a ⋈ R3 (at most N3 tuples, since tuples of R2|v1=a have distinct v2
// values on deduplicated inputs) and run a blocked nested-loop join against
// R1|v1=a.
func Line3(g *hypergraph.Graph, in relation.Instance, emit Emit) error {
	return runAlone(g, in, emit, Options{}, (*executor).line3)
}

// lineAlg is a Section 6 algorithm on an executor: it evaluates (g, in) and
// reports its results to done the way join does.
type lineAlg func(x *executor, g *hypergraph.Graph, in relation.Instance, reads uint64, done func(int64)) error

// runAlone runs alg on (g, in) as a query of its own, delivering each result
// to emit.
func runAlone(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, alg lineAlg) error {
	x := newExecutor(g, emit, opts, nil, nil)
	reads, done := x.start()
	return alg(x, g, in, reads, done)
}

func (x *executor) line3(g *hypergraph.Graph, in relation.Instance, reads uint64, done func(int64)) error {
	order, attrs, err := lineParts(g, 3)
	if err != nil {
		return err
	}
	a1, a2 := attrs[1], attrs[2]
	r1, err := in[order[0].ID].SortBy(a1)
	if err != nil {
		return err
	}
	r2, err := in[order[1].ID].SortBy(a1, a2)
	if err != nil {
		return err
	}
	r3, err := in[order[2].ID].SortBy(a2)
	if err != nil {
		return err
	}
	s1 := r1.Schema()
	b1 := attrMask(s1...)

	// Light values of v1 in R1 (Algorithm 1 lines 8-12). The chunks come in
	// increasing v1 order, so the filters of R2 are one merge pass: each
	// resumes where the previous one stopped. The same pass finds the heavy
	// values.
	from := 0
	heavy, err := r1.LoadChunksBy(a1, func(c *relation.Chunk) error {
		r2m, stop, err := relation.SemijoinValues(r2, a1, c.Values, from)
		if err != nil {
			return err
		}
		from = stop
		r2s, err := r2m.SortBy(a2)
		if err != nil {
			return err
		}
		c2 := r2s.Col(a1)
		s2, s3 := r2s.Schema(), r3.Schema()
		b2, b3 := attrMask(s2...), attrMask(s3...)
		return PairJoin(r2s, r3, a2, func(t2, t3 tuple.Tuple) error {
			rows := relation.GroupRows(c.Rows(), c.Values, c.Starts, t2[c2])
			x.extend([]tuple.Tuple{t2}, s2, b2, reads, 1, func(k int64) {
				x.extend([]tuple.Tuple{t3}, s3, b3, reads, k, func(k int64) {
					x.extend(rows, s1, b1, reads, k, done)
				})
			})
			return nil
		})
	})
	if err != nil {
		return err
	}
	// Heavy values of v1 in R1 (lines 4-7).
	for _, hg := range heavy {
		a := hg.Value
		r2a := r2.FindRange(a1, a)
		// Constant leading column: the range is sorted by a2.
		r2a = r2a.WithSortOrder(r2.SortCols()[1:])
		j, err := MaterializePairJoin(r2a, r3, a2)
		if err != nil {
			return err
		}
		sj := j.Schema()
		bj := attrMask(sj...)
		err = BlockedNLJ(hg.Rel, j, func(rows []tuple.Tuple, tj tuple.Tuple) error {
			x.extend([]tuple.Tuple{tj}, sj, bj, reads, 1, func(k int64) {
				x.extend(rows, s1, b1, reads, k, done)
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// MaterializeLine3 runs Algorithm 1 and writes the results to disk as a
// relation over the line's four attributes (used by Algorithms 4 and 5,
// which pay the write cost deliberately).
func MaterializeLine3(g *hypergraph.Graph, in relation.Instance, schema tuple.Schema) (*relation.Relation, error) {
	var d = anyDisk(g, in)
	b := relation.NewBuilder(d, schema)
	err := Line3(g, in, func(asg tuple.Assignment) {
		b.Add(asg.Project(schema))
	})
	if err != nil {
		return nil, err
	}
	return b.Finish(), nil
}

// groupCursor iterates maximal runs of equal (c1, c2) keys over a view
// sorted lexicographically by those columns, yielding zero-copy group views.
type groupCursor struct {
	rel    *relation.Relation
	rd     *extmem.Reader
	c1, c2 int
	cur    tuple.Tuple
	idx    int
}

func newGroupCursor(r *relation.Relation, att1, att2 hypergraph.Attr) *groupCursor {
	gc := &groupCursor{rel: r, rd: r.Reader(), c1: r.Col(att1), c2: r.Col(att2)}
	if t := gc.rd.Next(); t != nil {
		gc.cur = tuple.Clone(t)
	}
	return gc
}

// next returns the next group's key and extent; ok=false at end.
func (gc *groupCursor) next() (k1, k2 int64, view *relation.Relation, ok bool) {
	if gc.cur == nil {
		return 0, 0, nil, false
	}
	k1, k2 = gc.cur[gc.c1], gc.cur[gc.c2]
	start := gc.idx
	for {
		gc.idx++
		t := gc.rd.Next()
		if t == nil {
			gc.cur = nil
			break
		}
		if t[gc.c1] != k1 || t[gc.c2] != k2 {
			copy(gc.cur, t)
			break
		}
	}
	return k1, k2, gc.rel.View(start, gc.idx-start), true
}

// skipTo advances the cursor until its current key is >= (k1,k2), consuming
// whole groups; returns the group with that exact key if present.
func (gc *groupCursor) skipTo(k1, k2 int64) (*relation.Relation, bool) {
	for gc.cur != nil {
		c1, c2 := gc.cur[gc.c1], gc.cur[gc.c2]
		if c1 > k1 || (c1 == k1 && c2 > k2) {
			return nil, false
		}
		g1, g2, view, _ := gc.next()
		if g1 == k1 && g2 == k2 {
			return view, true
		}
	}
	return nil, false
}

// Line5Unbalanced implements Algorithm 4, the optimal algorithm for
// 5-relation line joins violating the balance condition N1·N3·N5 ≥ N2·N4:
// materialize S = R1⋈R2⋈R3 and T = R3⋈R4⋈R5 via Algorithm 1, sort S, T and
// R3 lexicographically by (v2,v3) (the paper's v3,v4), and for each tuple
// t ∈ R3 join S(t) = S⋉t with T(t) = T⋉t by a blocked nested-loop join.
func Line5Unbalanced(g *hypergraph.Graph, in relation.Instance, emit Emit) error {
	return runAlone(g, in, emit, Options{}, (*executor).line5)
}

func (x *executor) line5(g *hypergraph.Graph, in relation.Instance, reads uint64, done func(int64)) error {
	order, attrs, err := lineParts(g, 5)
	if err != nil {
		return err
	}
	// Sub-line graphs for Algorithm 1.
	leftG := g.Subgraph(hypergraph.EdgeIDs(order[:3]))
	rightG := g.Subgraph(hypergraph.EdgeIDs(order[2:]))
	sSchema := tuple.Schema{attrs[0], attrs[1], attrs[2], attrs[3]}
	tSchema := tuple.Schema{attrs[2], attrs[3], attrs[4], attrs[5]}
	s, err := MaterializeLine3(leftG, in, sSchema)
	if err != nil {
		return err
	}
	tt, err := MaterializeLine3(rightG, in, tSchema)
	if err != nil {
		return err
	}
	m2, m3 := attrs[2], attrs[3] // the middle edge's attributes
	r3, err := in[order[2].ID].SortBy(m2, m3)
	if err != nil {
		return err
	}
	ss, err := s.SortBy(m2, m3)
	if err != nil {
		return err
	}
	ts, err := tt.SortBy(m2, m3)
	if err != nil {
		return err
	}
	sS, sT := ss.Schema(), ts.Schema()
	bS, bT := attrMask(sS...), attrMask(sT...)
	sCur := newGroupCursor(ss, m2, m3)
	tCur := newGroupCursor(ts, m2, m3)
	r3Cur := newGroupCursor(r3, m2, m3)
	for {
		k1, k2, _, ok := r3Cur.next()
		if !ok {
			return nil
		}
		sv, okS := sCur.skipTo(k1, k2)
		if !okS {
			continue
		}
		tv, okT := tCur.skipTo(k1, k2)
		if !okT {
			continue
		}
		err := BlockedNLJ(sv, tv, func(rows []tuple.Tuple, tt tuple.Tuple) error {
			x.extend([]tuple.Tuple{tt}, sT, bT, reads, 1, func(k int64) {
				x.extend(rows, sS, bS, reads, k, done)
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
}

// Line7Unbalanced implements Algorithm 5 for 7-relation line joins with
// optimal cover (1,0,1,0,1,0,1) and a broken balance condition: materialize
// S = R3⋈R4⋈R5 via Algorithm 1, then run AcyclicJoin on the residual
// acyclic query {R1, R2, S, R6, R7}, where S is one relation over the
// middle four attributes (two of them now unique to S).
func Line7Unbalanced(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options) error {
	return runAlone(g, in, emit, opts, (*executor).line7)
}

func (x *executor) line7(g *hypergraph.Graph, in relation.Instance, reads uint64, done func(int64)) error {
	order, attrs, err := lineParts(g, 7)
	if err != nil {
		return err
	}
	midG := g.Subgraph(hypergraph.EdgeIDs(order[2:5]))
	sSchema := tuple.Schema{attrs[2], attrs[3], attrs[4], attrs[5]}
	s, err := MaterializeLine3(midG, in, sSchema)
	if err != nil {
		return err
	}
	// Residual query: R1, R2, S, R6, R7 with fresh edge IDs.
	newEdges := []*hypergraph.Edge{
		{ID: 0, Name: order[0].Name, Attrs: order[0].Attrs},
		{ID: 1, Name: order[1].Name, Attrs: order[1].Attrs},
		{ID: 2, Name: "S", Attrs: []hypergraph.Attr{attrs[2], attrs[3], attrs[4], attrs[5]}},
		{ID: 3, Name: order[5].Name, Attrs: order[5].Attrs},
		{ID: 4, Name: order[6].Name, Attrs: order[6].Attrs},
	}
	ng, err := hypergraph.New(newEdges)
	if err != nil {
		return err
	}
	nin := relation.Instance{
		0: in[order[0].ID],
		1: in[order[1].ID],
		2: s,
		3: in[order[5].ID],
		4: in[order[6].ID],
	}
	return x.nested(ng, nin, reads, done)
}

// nested evaluates (g, in) with Algorithm 2, as a Run of its own under x's
// options, and reports its results to done: as one count when no callback
// reads an attribute of g, else one at a time, bound into x's assignment
// (not through extend: its schemas stop at 64 attributes, a line's do not).
// No loop of x binds an attribute of g while it runs.
func (x *executor) nested(g *hypergraph.Graph, in relation.Instance, reads uint64, done func(int64)) error {
	attrs := g.Attrs()
	if attrMask(attrs...)&reads == 0 {
		r, err := Run(g, in, nil, x.opts)
		if err != nil {
			return err
		}
		done(r.Emitted)
		return nil
	}
	_, err := Run(g, in, func(a tuple.Assignment) {
		for _, at := range attrs {
			x.asg[at] = a[at]
		}
		done(1)
		for _, at := range attrs {
			x.asg[at] = tuple.Unset
		}
	}, x.opts)
	return err
}

// chunked returns the body that composes inner with the end relation outer,
// which shares attribute shared with inner's query: for each memory chunk of
// outer, inner is recomputed and its results are matched against the chunk's
// rows by their shared value. This is the nested-loop composition the paper
// uses for the unbalanced L6 (R6 outer, Algorithm 4 inner) and the
// (1,1,0,1,0,1,1) L7 case.
func (x *executor) chunked(outer *relation.Relation, shared hypergraph.Attr, inner body) body {
	schema := outer.Schema()
	col, bound := outer.Col(shared), attrMask(schema...)
	return func(reads uint64, done func(int64)) error {
		return outer.LoadChunks(func(c *relation.Chunk) error {
			idx := map[int64][]tuple.Tuple{}
			for _, t := range c.Rows() {
				idx[t[col]] = append(idx[t[col]], t)
			}
			// The match reads the shared value, so inner must bind it.
			return inner(reads|attrMask(shared), func(k int64) {
				x.extend(idx[x.asg.Get(shared)], schema, bound, reads, k, done)
			})
		})
	}
}
