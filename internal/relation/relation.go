// Package relation provides relations stored on the simulated disk and the
// access-path primitives the paper's algorithms are written in terms of
// (Section 2.3): sorting by an attribute, splitting into heavy and light
// values with respect to the memory size M, restriction views R(e)|v=a,
// chunked memory loading ("load R(e) [by v] into memory as M(e)"), and
// sort-merge semijoins.
//
// A Relation is a view over a contiguous tuple range of an extmem.File
// together with its schema and (optionally) the attribute order it is sorted
// by. Restrictions of a sorted relation are zero-copy sub-views, so
// Algorithm 2's recursive calls on R(e')|v=a cost no I/O to set up and only
// pay sequential reads proportional to what they scan.
package relation

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extsort"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/tuple"
)

// Relation is a (view of a) relation on the simulated disk.
type Relation struct {
	schema tuple.Schema
	file   *extmem.File
	off, n int
	// sortCols is the column-position order the underlying range is known
	// to be sorted by (a full lexicographic order when non-nil).
	sortCols []int
}

// New returns an empty relation with the given schema.
func New(d *extmem.Disk, schema tuple.Schema) *Relation {
	return &Relation{schema: schema.Clone(), file: d.NewFile(len(schema))}
}

// FromTuples builds a relation from in-memory rows, charging the writes.
func FromTuples(d *extmem.Disk, schema tuple.Schema, rows []tuple.Tuple) *Relation {
	r := New(d, schema)
	r.file.Grow(len(rows))
	w := r.file.NewWriter()
	for _, t := range rows {
		w.Append(t)
	}
	w.Close()
	r.n = len(rows)
	return r
}

// Builder appends tuples to a fresh relation.
type Builder struct {
	r *Relation
	w *extmem.Writer
}

// NewBuilder returns a builder for a new relation with the given schema.
func NewBuilder(d *extmem.Disk, schema tuple.Schema) *Builder {
	r := New(d, schema)
	return &Builder{r: r, w: r.file.NewWriter()}
}

// Add appends one tuple (copied).
func (b *Builder) Add(t tuple.Tuple) { b.w.Append(t) }

// Finish closes the builder and returns the relation.
func (b *Builder) Finish() *Relation {
	b.w.Close()
	b.r.n = b.r.file.Len()
	return b.r
}

// Schema returns the relation's schema. Callers must not mutate.
func (r *Relation) Schema() tuple.Schema { return r.schema }

// Len returns the number of tuples in the view.
func (r *Relation) Len() int { return r.n }

// Disk returns the underlying simulated disk.
func (r *Relation) Disk() *extmem.Disk { return r.file.Disk() }

// SortCols returns the column order the view is sorted by, or nil.
func (r *Relation) SortCols() []int { return r.sortCols }

// SortedByAttr reports whether the view is sorted with attribute a leading.
func (r *Relation) SortedByAttr(a tuple.Attr) bool {
	if len(r.sortCols) == 0 {
		return false
	}
	c := r.schema.IndexOf(a)
	return c >= 0 && r.sortCols[0] == c
}

// Col returns the column position of attribute a, panicking if absent.
func (r *Relation) Col(a tuple.Attr) int {
	c := r.schema.IndexOf(a)
	if c < 0 {
		panic(fmt.Sprintf("relation: attribute v%d not in schema %v", a, r.schema))
	}
	return c
}

// Reader returns a sequential reader over the view.
func (r *Relation) Reader() *extmem.Reader { return r.file.NewRangeReader(r.off, r.n) }

// Blocks returns how many blocks a full scan of the view touches.
func (r *Relation) Blocks() int64 {
	b := int64(r.Disk().B())
	return (int64(r.n) + b - 1) / b
}

// View returns the sub-view of tuples [lo, lo+n) of r (relative indices),
// inheriting sortedness.
func (r *Relation) View(lo, n int) *Relation {
	if lo < 0 || n < 0 || lo+n > r.n {
		panic(fmt.Sprintf("relation: View(%d,%d) out of bounds (len %d)", lo, n, r.n))
	}
	return &Relation{schema: r.schema, file: r.file, off: r.off + lo, n: n, sortCols: r.sortCols}
}

// Scan calls fn for each tuple of the view, charging sequential reads.
// The tuple passed to fn aliases disk storage; copy it to keep it.
func (r *Relation) Scan(fn func(t tuple.Tuple)) {
	rd := r.Reader()
	for t := rd.Next(); t != nil; t = rd.Next() {
		fn(t)
	}
}

// keyOrder returns the full lexicographic column order putting the given
// attributes' columns first, followed by the remaining columns.
func (r *Relation) keyOrder(attrs []tuple.Attr) []int {
	used := make([]bool, len(r.schema))
	order := make([]int, 0, len(r.schema))
	for _, a := range attrs {
		c := r.Col(a)
		if used[c] {
			continue
		}
		used[c] = true
		order = append(order, c)
	}
	for c := range r.schema {
		if !used[c] {
			order = append(order, c)
		}
	}
	return order
}

// SortBy returns a relation with the same tuples sorted by the given
// attributes first (then all remaining columns, so the order is total).
// If the view is already sorted compatibly it is returned unchanged.
func (r *Relation) SortBy(attrs ...tuple.Attr) (*Relation, error) {
	return r.sortBy(attrs, false)
}

// SortDedupBy is SortBy but also removes duplicate tuples (set semantics).
func (r *Relation) SortDedupBy(attrs ...tuple.Attr) (*Relation, error) {
	return r.sortBy(attrs, true)
}

func (r *Relation) sortBy(attrs []tuple.Attr, dedup bool) (*Relation, error) {
	order := r.keyOrder(attrs)
	if !dedup && len(r.sortCols) >= len(order) {
		match := true
		for i := range order {
			if r.sortCols[i] != order[i] {
				match = false
				break
			}
		}
		if match {
			return r, nil
		}
	}
	// Materialize the view into its own file via the sorter.
	src := r.file
	if r.off != 0 || r.n != r.file.Len() {
		var err error
		src, err = r.copyRange()
		if err != nil {
			return nil, err
		}
	}
	var out *extmem.File
	var err error
	if dedup {
		out, err = extsort.SortDedupCols(src, order)
	} else {
		out, err = extsort.SortCols(src, order)
	}
	if err != nil {
		return nil, err
	}
	return &Relation{schema: r.schema, file: out, off: 0, n: out.Len(), sortCols: order}, nil
}

// copyRange materializes the view window into a fresh file (scan + write).
// Memoized: rebuilding the same window on a later branch clones the recorded
// copy and replays its charges.
func (r *Relation) copyRange() (*extmem.File, error) {
	outs, _, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "materialize",
		Inputs: []opcache.Input{memoIn(r)},
	}, func() ([]*extmem.File, []int64, error) {
		out := r.file.Disk().NewFile(len(r.schema))
		w := out.NewWriter()
		copyAll(w, r.Reader())
		w.Close()
		return []*extmem.File{out}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// copyAll appends every tuple rd has left to w, one block at a time. The
// charges interleave exactly as a tuple-at-a-time copy's: a block's writes
// land before the next block's read.
func copyAll(w *extmem.Writer, rd *extmem.Reader) {
	for cells, n := rd.Block(); n > 0; cells, n = rd.Block() {
		w.AppendCells(cells)
		rd.Skip(n)
	}
}

// Materialize returns a relation backed by its own file covering exactly the
// view (useful before handing a restriction to code that appends).
func (r *Relation) Materialize() (*Relation, error) {
	if r.off == 0 && r.n == r.file.Len() {
		return r, nil
	}
	f, err := r.copyRange()
	if err != nil {
		return nil, err
	}
	return &Relation{schema: r.schema, file: f, n: f.Len(), sortCols: r.sortCols}, nil
}

// WithSortOrder returns a view identical to r but declared sorted by the
// given column order. The caller asserts validity; the intended use is a
// restriction view whose leading sort column is constant, which makes the
// view sorted by the remaining columns (e.g. R2|v2=a of Algorithm 1 is
// sorted by v3 when R2 is sorted by (v2, v3)).
func (r *Relation) WithSortOrder(cols []int) *Relation {
	out := *r
	out.sortCols = append([]int{}, cols...)
	return &out
}

// Group is a maximal run of tuples sharing one value on the grouping column.
type Group struct {
	Value int64
	// Rel is the zero-copy view of the group's tuples.
	Rel *Relation
}

// Groups scans a view sorted by attribute a and calls fn for each value
// group, in order. It charges one sequential read of the view. fn receives
// a zero-copy sub-view per group.
func (r *Relation) Groups(a tuple.Attr, fn func(g Group) error) error {
	if !r.SortedByAttr(a) {
		return fmt.Errorf("relation: Groups(v%d) on view not sorted by it (sortCols=%v)", a, r.sortCols)
	}
	return r.runs(r.Col(a), func(v int64, lo, n int) error {
		return fn(Group{Value: v, Rel: r.View(lo, n)})
	})
}

// runs scans a view sorted by column c and calls fn with each value group's
// value and relative range [lo, lo+n), in order. It charges one sequential
// read of the view.
func (r *Relation) runs(c int, fn func(v int64, lo, n int) error) error {
	rd := r.Reader()
	w := len(r.schema)
	start, i := 0, 0
	var cur int64
	for cells, n := rd.Block(); n > 0; cells, n = rd.Block() {
		for k := c; k < n*w; k += w {
			if v := cells[k]; i == 0 {
				cur = v
			} else if v != cur {
				if err := fn(cur, start, i-start); err != nil {
					return err
				}
				start, cur = i, v
			}
			i++
		}
		rd.Skip(n)
	}
	if i > 0 {
		return fn(cur, start, i-start)
	}
	return nil
}

// FindRange locates the tuple range with value v on attribute a in a view
// sorted by a, via binary search over blocks (O(log(n/B)) random reads).
// It returns a zero-copy view (possibly empty).
func (r *Relation) FindRange(a tuple.Attr, v int64) *Relation {
	c := r.Col(a)
	if !r.SortedByAttr(a) {
		panic(fmt.Sprintf("relation: FindRange(v%d) on unsorted view", a))
	}
	lo := r.lowerBound(c, v)
	hi := r.lowerBound(c, v+1)
	return r.View(lo, hi-lo)
}

// lowerBound returns the smallest relative index i with tuple[c] >= v,
// probing one tuple per step through block reads amortized by the reader's
// block charging (each probe charges at most one block read).
func (r *Relation) lowerBound(c int, v int64) int {
	lo, hi := 0, r.n
	for lo < hi {
		mid := (lo + hi) / 2
		t := r.probe(mid)
		if t[c] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// probe reads the tuple at relative index i, charging one block read.
func (r *Relation) probe(i int) tuple.Tuple {
	abs := r.off + i
	b := r.Disk().B()
	blk := r.file.ReadBlock(abs / b)
	return blk[abs%b]
}

// Heavy reports the split of Section 2.3: given a view sorted by a, it
// returns the heavy value groups (N(e)|v=a >= M), zero-copy views of r, and
// the light part, every tuple of a light value, still sorted by a. The split
// is the linear pass the paper charges:
//   - a view shorter than M has no heavy value, so it is its own light part:
//     no operator runs and nothing is charged;
//   - otherwise one scan finds the heavy groups. With none, the view is
//     again its own light part and nothing is written;
//   - with some, one more sequential pass reads the light segments between
//     the heavy groups, each segment's block windows once, and writes them
//     to a new file: ⌈L/B⌉ writes for L light tuples.
//
// Memoized: the light file, if any, is recorded, and the heavy groups are
// rebuilt from recorded (value, offset, length) metadata.
func (r *Relation) Heavy(a tuple.Attr) (heavy []Group, light *Relation, err error) {
	if !r.SortedByAttr(a) {
		return nil, nil, fmt.Errorf("relation: Heavy(v%d) on view not sorted by it (sortCols=%v)", a, r.sortCols)
	}
	m := r.Disk().M()
	if r.n < m {
		return nil, r, nil
	}
	outs, meta, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "heavy-split",
		Params: strconv.Itoa(r.Col(a)),
		Inputs: []opcache.Input{memoIn(r)},
	}, func() ([]*extmem.File, []int64, error) {
		var groups []int64
		nLight := r.n
		err := r.runs(r.Col(a), func(v int64, lo, n int) error {
			if n >= m {
				groups = append(groups, v, int64(lo), int64(n))
				nLight -= n
			}
			return nil
		})
		if err != nil || len(groups) == 0 {
			return nil, nil, err
		}
		lightF := r.Disk().NewFile(len(r.schema))
		lightF.Grow(nLight)
		w := lightF.NewWriter()
		// One reader, re-aimed at each light segment [lo, hi).
		rd := r.file.NewRangeReader(r.off, 0)
		segment := func(lo, hi int) {
			if hi > lo {
				rd.Reset(r.off+lo, hi-lo)
				copyAll(w, rd)
			}
		}
		lo := 0
		for i := 0; i < len(groups); i += 3 {
			segment(lo, int(groups[i+1]))
			lo = int(groups[i+1] + groups[i+2])
		}
		segment(lo, r.n)
		w.Close()
		return []*extmem.File{lightF}, groups, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+2 < len(meta); i += 3 {
		heavy = append(heavy, Group{Value: meta[i], Rel: r.View(int(meta[i+1]), int(meta[i+2]))})
	}
	if len(outs) == 0 {
		return heavy, r, nil
	}
	light = &Relation{schema: r.schema, file: outs[0], n: outs[0].Len(), sortCols: r.sortCols}
	return heavy, light, nil
}

// Chunk is an in-memory load of tuples, with the memory accounted until
// Release is called.
type Chunk struct {
	// Values are the sorted distinct values on the grouping attribute when
	// the chunk was loaded "by v"; nil for plain chunk loads. They are valid
	// only until fn returns.
	Values []int64
	// Starts[i] is the index in Rows of the first row of Values[i]'s group,
	// with one more entry, Len, closing the last group; nil for plain chunk
	// loads. GroupRows looks a value's rows up through it.
	Starts []int
	// cells are the loaded rows back to back, slot cells each: a slice of
	// the relation's file image, not a copy.
	cells       []int64
	width, slot int
	built       bool
	arena       *chunkArena
	disk        *extmem.Disk
	held        int
}

// Len returns the number of loaded rows.
func (c *Chunk) Len() int { return len(c.cells) / c.slot }

// Rows returns the loaded rows, in view order. The rows alias the relation's
// disk storage, like the cells of Reader.Block: they must not be modified,
// and they stay valid until the disk's Recycle. The row headers are built on
// the first call, in an arena the load reuses for its next chunk, so the
// slice itself is valid only until fn returns. A caller that reads no row
// never pays for the headers.
func (c *Chunk) Rows() []tuple.Tuple {
	a := c.arena
	if !c.built {
		c.built = true
		a.rows = slices.Grow(a.rows[:0], c.Len())
		for lo := 0; lo < len(c.cells); lo += c.slot {
			a.rows = append(a.rows, c.cells[lo:lo+c.width:lo+c.width])
		}
	}
	return a.rows
}

// Runs returns the distinct values of column col and their group offsets,
// laid out as Values and Starts, for a plain chunk load whose rows are
// sorted by col. It reads the cells and builds no row headers. The slices
// reuse the storage a load by value keeps Values and Starts in, and are
// valid only until fn returns.
func (c *Chunk) Runs(col int) (vals []int64, starts []int) {
	a := c.arena
	a.vals, a.starts = a.vals[:0], a.starts[:0]
	n := c.Len()
	for i := range n {
		if v := c.cells[i*c.slot+col]; len(a.vals) == 0 || v != a.vals[len(a.vals)-1] {
			a.vals = append(a.vals, v)
			a.starts = append(a.starts, i)
		}
	}
	a.starts = append(a.starts, n)
	return a.vals, a.starts
}

// GroupRows returns the rows of ts whose grouping value is v: ts is sorted
// by that value, vals holds its sorted distinct values and starts their group
// offsets, laid out as Chunk.Values and Chunk.Starts. The binary search runs
// over the distinct values, not the rows. The result is a sub-slice of ts,
// empty when v is absent.
func GroupRows(ts []tuple.Tuple, vals []int64, starts []int, v int64) []tuple.Tuple {
	i, ok := slices.BinarySearch(vals, v)
	if !ok {
		return nil
	}
	return ts[starts[i]:starts[i+1]]
}

// Release returns the chunk's memory to the accountant.
func (c *Chunk) Release() {
	if c.held > 0 {
		c.disk.Release(c.held)
		c.held = 0
	}
}

// chunkArena is the host memory behind one chunk load: the row headers Rows
// builds, the chunk's value set with its group offsets and the Chunk handed
// to fn. One load reuses it for every chunk, and arenaPool hands it to later
// loads, so a load allocates O(1) times however many tuples it reads. A load
// nested in another load's fn takes its own arena from the pool.
type chunkArena struct {
	rows   []tuple.Tuple
	vals   []int64
	starts []int
	chunk  Chunk
}

var arenaPool sync.Pool

// getArena returns an empty arena.
func getArena() *chunkArena {
	a, _ := arenaPool.Get().(*chunkArena)
	if a == nil {
		a = &chunkArena{}
	}
	return a
}

// putArena hands a back to the pool, dropping its references to the load's
// disk and its storage.
func putArena(a *chunkArena) {
	clear(a.rows[:cap(a.rows)])
	a.chunk = Chunk{}
	arenaPool.Put(a)
}

// start empties the arena for the next chunk of a load over r and returns
// that chunk, holding no rows yet.
func (a *chunkArena) start(r *Relation, held int) *Chunk {
	a.vals, a.starts = a.vals[:0], a.starts[:0]
	a.chunk = Chunk{width: len(r.schema), slot: r.file.Slot(), arena: a, disk: r.Disk(), held: held}
	return &a.chunk
}

// take adds the first k tuples of a block window, cells as Reader.Block
// returned them, to chunk c. A reader's consecutive windows are consecutive
// in its file's image, so c's cells stay one slice of that image, extended
// in place.
func (c *Chunk) take(cells []int64, k int) {
	if k == 0 {
		return
	}
	n := len(c.cells)
	if n == 0 {
		c.cells = cells[:k*c.slot]
	} else if &c.cells[:n+1][n] != &cells[0] {
		panic("relation: chunk load read a window that does not follow the previous one")
	} else {
		c.cells = c.cells[:n+k*c.slot]
	}
}

// LoadChunks implements "load R(e) into memory as M(e)": it reads the view
// in chunks of M tuples and calls fn for each. The chunk's memory is
// released after fn returns, whether or not fn returns an error.
func (r *Relation) LoadChunks(fn func(c *Chunk) error) error {
	d := r.Disk()
	m := d.M()
	rd := r.Reader()
	a := getArena()
	defer putArena(a)
	for rd.Remaining() > 0 {
		if err := d.Grab(m); err != nil {
			return err
		}
		c := a.start(r, m)
		for c.Len() < m {
			cells, n := rd.Block()
			if n == 0 {
				break
			}
			k := min(n, m-c.Len())
			c.take(cells, k)
			rd.Skip(k)
		}
		err := fn(c)
		c.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadChunksBy implements "load R(e) by v into memory as M(e)" for light
// values (Section 2.3): whole value groups are loaded until at least M
// tuples are in memory (at most 2M when every group is light). The view
// must be sorted by a.
func (r *Relation) LoadChunksBy(a tuple.Attr, fn func(c *Chunk) error) error {
	if !r.SortedByAttr(a) {
		return fmt.Errorf("relation: LoadChunksBy(v%d) on view not sorted by it", a)
	}
	d := r.Disk()
	m, w := d.M(), len(r.schema)
	col := r.Col(a)
	rd := r.Reader()
	ar := getArena()
	defer putArena(ar)
	for rd.Remaining() > 0 {
		if err := d.Grab(2 * m); err != nil {
			return err
		}
		c := ar.start(r, 2*m)
		loaded := 0
		for cut := false; !cut; {
			// Block charges a block exactly as Next would. The tuples from
			// the one that opens the next chunk on stay unconsumed, and
			// that chunk finds their block already charged.
			cells, n := rd.Block()
			if n == 0 {
				break
			}
			k := 0
			for ; k < n; k++ {
				v := cells[k*w+col]
				if len(ar.vals) == 0 || v != ar.vals[len(ar.vals)-1] {
					if cut = loaded+k >= m; cut {
						break
					}
					ar.vals = append(ar.vals, v)
					ar.starts = append(ar.starts, loaded+k)
				}
			}
			c.take(cells, k)
			rd.Skip(k)
			loaded += k
		}
		ar.starts = append(ar.starts, loaded)
		c.Values, c.Starts = ar.vals, ar.starts
		err := fn(c)
		c.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
