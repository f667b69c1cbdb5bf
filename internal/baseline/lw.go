package baseline

import (
	"fmt"
	"math"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// LoomisWhitneyQuery returns the LW_n query: n attributes v_0..v_{n-1} and n
// relations, relation i containing every attribute except v_i. LW_3 is the
// triangle.
func LoomisWhitneyQuery(n int) *hypergraph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("baseline: LoomisWhitneyQuery(%d)", n))
	}
	edges := make([]*hypergraph.Edge, n)
	for i := 0; i < n; i++ {
		e := &hypergraph.Edge{ID: i, Name: fmt.Sprintf("R%d", i)}
		for a := 0; a < n; a++ {
			if a != i {
				e.Attrs = append(e.Attrs, a)
			}
		}
		edges[i] = e
	}
	return hypergraph.MustNew(edges)
}

// lwGrid partitions a relation into g^(n-1) buckets by hashing each of its
// columns, collecting offsets in one scan after a grid sort.
type lwGrid struct {
	rel   *relation.Relation
	cols  []int
	attrs []tuple.Attr
	g     int
	seed  int64
	offs  []int
}

func makeLWGrid(r *relation.Relation, attrs []tuple.Attr, g int, seed int64) (*lwGrid, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.Col(a)
	}
	key := func(t tuple.Tuple) int {
		k := 0
		for i, c := range cols {
			k = k*g + bucketOf(t[c], seed+int64(attrs[i]), g)
		}
		return k
	}
	cmp := func(a, b tuple.Tuple) int {
		ka, kb := key(a), key(b)
		if ka != kb {
			return ka - kb
		}
		return tuple.CompareFull(a, b)
	}
	sorted, err := sortByCmp(r, cmp)
	if err != nil {
		return nil, err
	}
	nb := 1
	for range cols {
		nb *= g
	}
	gr := &lwGrid{rel: sorted, g: g, seed: seed, offs: make([]int, nb+1)}
	gr.cols = make([]int, len(attrs))
	for i, a := range attrs {
		gr.cols[i] = sorted.Col(a)
	}
	gr.attrs = append([]tuple.Attr{}, attrs...)
	idx, cur := 0, 0
	sorted.Scan(func(t tuple.Tuple) {
		b := 0
		for i, c := range gr.cols {
			b = b*g + bucketOf(t[c], seed+int64(gr.attrs[i]), g)
		}
		for cur < b {
			cur++
			gr.offs[cur] = idx
		}
		idx++
	})
	for cur < nb {
		cur++
		gr.offs[cur] = idx
	}
	gr.offs[nb] = sorted.Len()
	return gr, nil
}

func (gr *lwGrid) bucket(key int) *relation.Relation {
	lo, hi := gr.offs[key], gr.offs[key+1]
	return gr.rel.View(lo, hi-lo)
}

// LoomisWhitney evaluates LW_n by the randomized grid partition generalizing
// the triangle algorithm: each attribute's domain is hashed into g groups
// with g = ceil((N/M)^{1/(n-1)}), every relation is range-partitioned into
// its g^{n-1} cells (expected size M), and each of the g^n grid cells is
// joined in memory. Expected cost O(g^n·n·M/B) = O((N/M)^{n/(n-1)}·M/B),
// matching Table 1's LW row. The instance maps edge i of
// LoomisWhitneyQuery(n) to its relation.
func LoomisWhitney(n int, in relation.Instance, seed int64, emit Emit) error {
	g := LoomisWhitneyQuery(n)
	maxN := 0
	var d *relation.Relation
	for i := 0; i < n; i++ {
		r, ok := in[i]
		if !ok {
			return fmt.Errorf("baseline: LW instance missing relation %d", i)
		}
		if r.Len() > maxN {
			maxN = r.Len()
		}
		d = r
	}
	if maxN == 0 {
		return nil
	}
	m := d.Disk().M()
	gg := int(math.Ceil(math.Pow(float64(maxN)/float64(m), 1/float64(n-1))))
	if gg < 1 {
		gg = 1
	}
	grids := make([]*lwGrid, n)
	for i, e := range g.Edges() {
		lg, err := makeLWGrid(in[e.ID], e.Attrs, gg, seed)
		if err != nil {
			return err
		}
		grids[i] = lg
	}
	asg := tuple.NewAssignment(n)
	schemas := make([]tuple.Schema, n)
	for i, e := range g.Edges() {
		schemas[i] = append(tuple.Schema{}, e.Attrs...)
	}
	// Iterate all z in [g]^n.
	z := make([]int, n)
	var visit func(d int) error
	visit = func(dep int) error {
		if dep == n {
			return lwCell(grids, schemas, z, gg, asg, emit)
		}
		for v := 0; v < gg; v++ {
			z[dep] = v
			if err := visit(dep + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(0)
}

// lwCell joins the n cell buckets of one grid point in memory, chunking each
// loaded bucket so skew degrades gracefully.
func lwCell(grids []*lwGrid, schemas []tuple.Schema, z []int, g int, asg tuple.Assignment, emit Emit) error {
	n := len(grids)
	views := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		// Bucket key of relation i: z with coordinate i omitted, in the
		// relation's attribute order (attrs are sorted ascending and skip i).
		key := 0
		for _, a := range schemas[i] {
			key = key*g + z[a]
		}
		views[i] = grids[i].bucket(key)
		if views[i].Len() == 0 {
			return nil
		}
	}
	// Nested chunk loads, innermost does the in-memory backtracking join.
	loaded := make([][]tuple.Tuple, n)
	var load func(i int) error
	load = func(i int) error {
		if i == n {
			return inMemoryJoin(loaded, schemas, asg, emit)
		}
		return views[i].LoadChunks(func(c *relation.Chunk) error {
			loaded[i] = c.Rows()
			return load(i + 1)
		})
	}
	return load(0)
}

// inMemoryJoin backtracks over in-memory tuple lists, emitting consistent
// assignments. Duplicate projections are the caller's concern (grid cells
// partition tuples, so no duplicates arise across cells).
func inMemoryJoin(lists [][]tuple.Tuple, schemas []tuple.Schema, asg tuple.Assignment, emit Emit) error {
	var rec func(i int)
	rec = func(i int) {
		if i == len(lists) {
			emit(asg)
			return
		}
		s := schemas[i]
	next:
		for _, t := range lists[i] {
			for j, a := range s {
				if asg.Has(a) && asg.Get(a) != t[j] {
					continue next
				}
			}
			var mask uint64
			for j, a := range s {
				if !asg.Has(a) {
					asg.Set(a, t[j])
					mask |= 1 << uint(j)
				}
			}
			rec(i + 1)
			for j, a := range s {
				if mask&(1<<uint(j)) != 0 {
					asg[a] = tuple.Unset
				}
			}
		}
	}
	rec(0)
	return nil
}
