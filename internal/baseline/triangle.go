package baseline

import (
	"fmt"
	"math"

	"acyclicjoin/internal/extsort"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// hash64 is a fixed 64-bit mixer (splitmix64 finalizer) salted by seed.
func hash64(x, seed int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15 + uint64(seed)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func bucketOf(x, seed int64, g int) int {
	return int(hash64(x, seed) % uint64(g))
}

// grid holds a relation sorted by the bucket pair of two columns, with
// bucket offsets collected in one scan. The offsets are O(g²) integers of
// metadata.
type grid struct {
	rel    *relation.Relation
	c0, c1 int
	g      int
	seed   int64
	offs   []int // len g*g+1; bucket (i,j) occupies [offs[i*g+j], offs[i*g+j+1])
}

func makeGrid(r *relation.Relation, a0, a1 tuple.Attr, g int, seed int64) (*grid, error) {
	c0, c1 := r.Col(a0), r.Col(a1)
	// Hash salts are keyed by ATTRIBUTE so that a shared attribute buckets
	// identically across all relations containing it.
	s0, s1 := seed+int64(a0), seed+int64(a1)
	key := func(t tuple.Tuple) (int, int) {
		return bucketOf(t[c0], s0, g), bucketOf(t[c1], s1, g)
	}
	cmp := func(a, b tuple.Tuple) int {
		ai, aj := key(a)
		bi, bj := key(b)
		switch {
		case ai != bi:
			return ai - bi
		case aj != bj:
			return aj - bj
		}
		return tuple.CompareFull(a, b)
	}
	sorted, err := sortByCmp(r, cmp)
	if err != nil {
		return nil, err
	}
	gr := &grid{rel: sorted, c0: sorted.Col(a0), c1: sorted.Col(a1), g: g, seed: seed,
		offs: make([]int, g*g+1)}
	// One scan to collect bucket boundaries.
	idx := 0
	cur := 0
	sorted.Scan(func(t tuple.Tuple) {
		b := bucketOf(t[gr.c0], s0, g)*g + bucketOf(t[gr.c1], s1, g)
		for cur < b {
			cur++
			gr.offs[cur] = idx
		}
		idx++
	})
	for cur < g*g {
		cur++
		gr.offs[cur] = idx
	}
	gr.offs[g*g] = sorted.Len()
	return gr, nil
}

func (gr *grid) bucket(i, j int) *relation.Relation {
	lo, hi := gr.offs[i*gr.g+j], gr.offs[i*gr.g+j+1]
	return gr.rel.View(lo, hi-lo)
}

// sortByCmp sorts a relation by an arbitrary comparator: the view is drained
// into a fresh file, external-sorted, and rebuilt as a relation (the
// relation package only exposes attribute-order sorting).
func sortByCmp(r *relation.Relation, cmp extsort.Cmp) (*relation.Relation, error) {
	d := r.Disk()
	f := d.NewFile(len(r.Schema()))
	w := f.NewWriter()
	r.Scan(func(t tuple.Tuple) { w.Append(t) })
	w.Close()
	sorted, err := extsort.Sort(f, cmp)
	if err != nil {
		return nil, err
	}
	out := relation.NewBuilder(d, r.Schema())
	rd := sorted.NewReader()
	for t := rd.Next(); t != nil; t = rd.Next() {
		out.Add(t)
	}
	return out.Finish(), nil
}

// Triangle enumerates all triangles of the query R12(v0,v1) ⋈ R13(v0,v2) ⋈
// R23(v1,v2) by the randomized grid partition of [7,12]: vertices are hashed
// into g = √(N/M) groups per attribute, each relation is range-partitioned
// into g² buckets of expected size M, and each of the g³ group triples is
// joined in memory. Expected cost O(g³·M/B) = O(N^{3/2}/(√M·B)) on
// non-adversarial hash inputs, matching Table 1's triangle row.
func Triangle(r12, r13, r23 *relation.Relation, v0, v1, v2 tuple.Attr, seed int64, nAttrs int, emit Emit) error {
	n := r12.Len()
	if r13.Len() > n {
		n = r13.Len()
	}
	if r23.Len() > n {
		n = r23.Len()
	}
	if n == 0 {
		return nil
	}
	d := r12.Disk()
	g := int(math.Ceil(math.Sqrt(float64(n) / float64(d.M()))))
	if g < 1 {
		g = 1
	}
	g12, err := makeGrid(r12, v0, v1, g, seed)
	if err != nil {
		return err
	}
	g13, err := makeGrid(r13, v0, v2, g, seed)
	if err != nil {
		return err
	}
	g23, err := makeGrid(r23, v1, v2, g, seed)
	if err != nil {
		return err
	}
	asg := tuple.NewAssignment(nAttrs)
	c12x, c12y := g12.rel.Col(v0), g12.rel.Col(v1)
	c13x, c13z := g13.rel.Col(v0), g13.rel.Col(v2)
	c23y, c23z := g23.rel.Col(v1), g23.rel.Col(v2)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			b12 := g12.bucket(i, j)
			if b12.Len() == 0 {
				continue
			}
			for k := 0; k < g; k++ {
				b13 := g13.bucket(i, k)
				b23 := g23.bucket(j, k)
				if b13.Len() == 0 || b23.Len() == 0 {
					continue
				}
				// Join the three buckets in memory, chunking the two loaded
				// ones so adversarial skew degrades to blocked NLJ instead
				// of breaking the memory bound.
				err := b12.LoadChunks(func(c12 *relation.Chunk) error {
					idx := map[int64][]int64{}
					for _, t := range c12.Rows() {
						idx[t[c12x]] = append(idx[t[c12x]], t[c12y])
					}
					return b23.LoadChunks(func(c23 *relation.Chunk) error {
						pair := map[[2]int64]bool{}
						for _, t := range c23.Rows() {
							pair[[2]int64{t[c23y], t[c23z]}] = true
						}
						rd := b13.Reader()
						for t := rd.Next(); t != nil; t = rd.Next() {
							x, z := t[c13x], t[c13z]
							for _, y := range idx[x] {
								if pair[[2]int64{y, z}] {
									asg.Set(v0, x)
									asg.Set(v1, y)
									asg.Set(v2, z)
									emit(asg)
									asg[v0], asg[v1], asg[v2] = tuple.Unset, tuple.Unset, tuple.Unset
								}
							}
						}
						return nil
					})
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TriangleNaive is the blocked nested-loop triangle join used as the naive
// comparison row: Θ(N²/(M·B)) I/Os in the worst case (chunks of R12 times
// chunks of R13, streaming R23).
func TriangleNaive(r12, r13, r23 *relation.Relation, v0, v1, v2 tuple.Attr, nAttrs int, emit Emit) error {
	asg := tuple.NewAssignment(nAttrs)
	c12x, c12y := r12.Col(v0), r12.Col(v1)
	c13x, c13z := r13.Col(v0), r13.Col(v2)
	c23y, c23z := r23.Col(v1), r23.Col(v2)
	return r12.LoadChunks(func(c12 *relation.Chunk) error {
		byY := map[int64][]int64{} // y -> xs with (x,y) in the chunk
		for _, t := range c12.Rows() {
			byY[t[c12y]] = append(byY[t[c12y]], t[c12x])
		}
		return r13.LoadChunks(func(c13 *relation.Chunk) error {
			xz := map[[2]int64]bool{}
			for _, t := range c13.Rows() {
				xz[[2]int64{t[c13x], t[c13z]}] = true
			}
			rd := r23.Reader()
			for t := rd.Next(); t != nil; t = rd.Next() {
				y, z := t[c23y], t[c23z]
				for _, x := range byY[y] {
					if xz[[2]int64{x, z}] {
						asg.Set(v0, x)
						asg.Set(v1, y)
						asg.Set(v2, z)
						emit(asg)
						asg[v0], asg[v1], asg[v2] = tuple.Unset, tuple.Unset, tuple.Unset
					}
				}
			}
			return nil
		})
	})
}

var _ = fmt.Sprint // reserved for error paths
