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

// FromCells builds a relation from rows laid out back to back, Slot cells
// each, as Writer.AppendCells takes them, charging the writes.
func FromCells(d *extmem.Disk, schema tuple.Schema, cells []int64) *Relation {
	r := New(d, schema)
	n := len(cells) / r.file.Slot()
	r.file.Grow(n)
	w := r.file.NewWriter()
	w.AppendCells(cells)
	w.Close()
	r.n = n
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
	src, err := r.ownFile()
	if err != nil {
		return nil, err
	}
	var out *extmem.File
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

// ownFile returns the file the view covers whole: its backing file, or a
// copy of its window for a partial view.
func (r *Relation) ownFile() (*extmem.File, error) {
	if r.off == 0 && r.n == r.file.Len() {
		return r.file, nil
	}
	return r.copyRange()
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
		// One block at a time: the charges interleave exactly as a
		// tuple-at-a-time copy's, a block's writes before the next read.
		rd := r.Reader()
		for cells, n := rd.Block(); n > 0; cells, n = rd.Block() {
			w.AppendCells(cells)
			rd.Skip(n)
		}
		w.Close()
		return []*extmem.File{out}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
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
	// the relation's file image, or, for a load by value whose groups
	// straddle a heavy value, a copy in the arena.
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
// and they stay valid until the disk's Recycle (rows a load by value copied
// stay valid only until fn returns). The row headers are built on
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
// builds, the chunk's value set with its group offsets, the cells of a chunk
// that must be copied, the Chunk handed to fn and, for a load by value, the
// pass's state. One load reuses it for every chunk, and arenaPool hands it
// to later loads, so a load allocates O(1) times however many tuples it
// reads. A load nested in another load's fn takes its own arena from the
// pool.
type chunkArena struct {
	rows   []tuple.Tuple
	vals   []int64
	starts []int
	cells  []int64
	chunk  Chunk
	load   byLoad
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
	a.load = byLoad{}
	arenaPool.Put(a)
}

// start empties the arena for the next chunk of a load over r and returns
// that chunk, holding no rows and no memory yet.
func (a *chunkArena) start(r *Relation) *Chunk {
	a.vals, a.starts = a.vals[:0], a.starts[:0]
	a.chunk = Chunk{width: len(r.schema), slot: r.file.Slot(), arena: a, disk: r.Disk()}
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
// in chunks of M tuples and calls fn for each. A chunk grabs the memory it
// fills, M tuples or the view's last min(M, remaining), and releases it
// after fn returns, whether or not fn returns an error. A refused grab
// releases what it asked for before the error returns.
func (r *Relation) LoadChunks(fn func(c *Chunk) error) error {
	d := r.Disk()
	m := d.M()
	rd := r.Reader()
	a := getArena()
	defer putArena(a)
	for rd.Remaining() > 0 {
		held := min(m, rd.Remaining())
		if err := d.Grab(held); err != nil {
			d.Release(held)
			return err
		}
		c := a.start(r)
		c.held = held
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

// LoadChunksBy implements "load R(e) by v into memory as M(e)" together with
// the heavy/light split of Section 2.3, in one pass over a view sorted by a:
//   - a value with at least M tuples is heavy. It is not loaded; it comes
//     back in heavy, in view order, as a zero-copy Group view;
//   - the light values are loaded as whole groups into chunks handed to fn.
//     A chunk is cut at a new value once it holds at least M tuples, so it
//     holds fewer than 2M. A chunk grabs the memory it fills, its tuple
//     count, once before fn runs (nothing else grabs while a load fills
//     it), so a load that meets only heavy values grabs nothing;
//   - a chunk's cells alias the view's file image while its groups are
//     contiguous there. A chunk whose groups straddle a heavy value copies
//     its cells into its arena, within the memory it holds.
//
// The pass charges the view's block windows once and writes nothing. The
// chunk's memory is released after fn returns, whether or not fn returns an
// error, and a refused grab releases what it asked for before the error
// returns.
//
// Each stretch of the pass that fills a chunk is a memoized operator (see
// byLoad.step): a later branch that loads the same view replays its read
// charges and files its groups from the image, performing no read.
func (r *Relation) LoadChunksBy(a tuple.Attr, fn func(c *Chunk) error) (heavy []Group, err error) {
	if !r.SortedByAttr(a) {
		return nil, fmt.Errorf("relation: LoadChunksBy(v%d) on view not sorted by it", a)
	}
	if r.n == 0 {
		return nil, nil
	}
	ar := getArena()
	defer putArena(ar)
	s := &ar.load
	*s = byLoad{r: r, rd: *r.Reader(), m: r.Disk().M(), w: r.file.Slot(), col: r.Col(a), ar: ar}
	// The view's cells in the file image. A real step reads them only window
	// by window, as the reader charges them.
	s.img = s.rd.Cells()
	s.cur = s.img[s.col]
	for first := true; ; first = false {
		cut, err := s.step(first)
		if err != nil {
			return nil, err
		}
		if cut == r.n {
			break
		}
		if err := s.flush(fn); err != nil {
			return nil, err
		}
	}
	s.file(s.cur, s.lo, r.n)
	if s.c != nil {
		if err := s.flush(fn); err != nil {
			return nil, err
		}
	}
	return s.heavy, nil
}

// byLoad is the state of one LoadChunksBy pass, kept in its arena.
type byLoad struct {
	r         *Relation
	rd        extmem.Reader
	img       []int64
	m, w, col int
	ar        *chunkArena
	heavy     []Group
	// The group being read: value cur from relative index lo.
	cur int64
	lo  int
	// The chunk being filled, nil until a light value enters it, with the
	// tuples loaded into it; end is the relative index its cells run to in
	// the image, while not copied.
	c           *Chunk
	loaded, end int
	copied      bool
}

// step files the groups from lo, the start of the group being read, on,
// until a chunk fills or the view ends, and returns the index of the tuple
// that opens the next chunk, or the view's length. It is one memoized
// operator. What it reads is a function of the view's cells from lo on, of
// their block alignment and of whether the reader has charged lo's window
// already, as it has at every step but the first. So its charges are
// replayed when an earlier branch loaded the same cells, and it then files
// the groups from the image and resumes the reader at the cut, performing no
// read. It writes nothing, so the memo keeps only its charges.
func (s *byLoad) step(first bool) (int, error) {
	r := s.r
	charged := int64(1)
	if first {
		charged = 0
	}
	ran, cut := false, 0
	_, _, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "loadby",
		Inputs: []opcache.Input{{File: r.file, Off: r.off + s.lo, N: r.n - s.lo}},
		Aux:    []int64{int64(s.col), charged},
	}, func() ([]*extmem.File, []int64, error) {
		ran, cut = true, s.read()
		return nil, nil, nil
	})
	if err != nil || ran {
		return cut, err
	}
	if cut = s.advance(s.lo, r.n); cut < r.n {
		s.rd.Resume(r.off + cut)
	}
	return cut, nil
}

// read is a step's real run: it reads on through the reader, window by
// window, charging each window the first time, and stops at the cut.
func (s *byLoad) read() int {
	r, rd := s.r, &s.rd
	for {
		_, n := rd.Block()
		if n == 0 {
			return r.n
		}
		i := rd.Pos() - r.off
		if cut := s.advance(i, i+n); cut < i+n {
			rd.Skip(cut - i)
			return cut
		}
		rd.Skip(n)
	}
}

// advance files the groups that tuples [i, hi) of the view close, and stops
// at the first tuple that opens a group once a chunk holds M tuples: it
// returns that tuple's index, or hi.
func (s *byLoad) advance(i, hi int) int {
	for ; i < hi; i++ {
		v := s.img[i*s.w+s.col]
		if v == s.cur {
			continue
		}
		s.file(s.cur, s.lo, i)
		s.cur, s.lo = v, i
		if s.loaded >= s.m {
			return i
		}
	}
	return hi
}

// file files the group of value v, relative range [lo, hi): heavy, or into
// the chunk.
func (s *byLoad) file(v int64, lo, hi int) {
	if hi-lo >= s.m {
		s.heavy = append(s.heavy, Group{Value: v, Rel: s.r.View(lo, hi-lo)})
		return
	}
	ar, w := s.ar, s.w
	if s.c == nil {
		s.c = ar.start(s.r)
	}
	c := s.c
	ar.vals = append(ar.vals, v)
	ar.starts = append(ar.starts, s.loaded)
	s.loaded += hi - lo
	switch {
	case len(c.cells) == 0:
		c.cells = s.img[lo*w : hi*w]
	case !s.copied && lo == s.end:
		c.cells = c.cells[:s.loaded*w]
	default:
		if !s.copied {
			ar.cells = append(ar.cells[:0], c.cells...)
			s.copied = true
		}
		ar.cells = append(ar.cells, s.img[lo*w:hi*w]...)
		c.cells = ar.cells
	}
	s.end = hi
}

// flush grabs the chunk's memory, hands it to fn and releases it.
func (s *byLoad) flush(fn func(c *Chunk) error) error {
	d, ar, c := s.r.Disk(), s.ar, s.c
	if err := d.Grab(s.loaded); err != nil {
		d.Release(s.loaded)
		return err
	}
	ar.starts = append(ar.starts, s.loaded)
	c.Values, c.Starts, c.held = ar.vals, ar.starts, s.loaded
	err := fn(c)
	c.Release()
	s.c, s.loaded, s.copied = nil, 0, false
	return err
}
