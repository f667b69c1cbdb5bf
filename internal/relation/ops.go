package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extsort"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/tuple"
)

// The operators in this file are deterministic in (input windows, column
// parameters, machine shape): their output bytes and every block charge
// follow mechanically from those. Each therefore routes through the disk's
// operator memo (internal/opcache) when one is attached — a repeat run clones
// the recorded output and replays the recorded charge tape, bit-identical to
// redoing the work. Sortedness guards stay OUTSIDE the memoized body so the
// error behaviour is identical with the memo on or off (sortedness is view
// metadata, not file content, and must not be decided by a content match).

// memoIn returns r's view window as an operator-memo input.
func memoIn(r *Relation) opcache.Input {
	return opcache.Input{File: r.file, Off: r.off, N: r.n}
}

// MemoInput returns r's view window as an operator-memo input, for memoized
// operators in other packages (e.g. core's materialized pairwise join).
func (r *Relation) MemoInput() opcache.Input { return memoIn(r) }

// FromFile wraps a whole file as a relation declared sorted by sortCols
// (nil = unsorted). The file's arity must match the schema; intended for
// reconstructing a memoized operator's output relation from a replayed file.
func FromFile(f *extmem.File, schema tuple.Schema, sortCols []int) *Relation {
	if f.Arity() != len(schema) {
		panic(fmt.Sprintf("relation: FromFile arity %d != schema %v", f.Arity(), schema))
	}
	return &Relation{schema: schema.Clone(), file: f, n: f.Len(), sortCols: sortCols}
}

// File returns the backing file when the view covers it entirely (the shape
// of every freshly built relation). It exists so memoized operators in other
// packages can store their output file in the memo; partial views panic.
func (r *Relation) File() *extmem.File {
	if r.off != 0 || r.n != r.file.Len() {
		panic("relation: File() on a partial view")
	}
	return r.file
}

// Semijoin computes r ⋉ s on the shared attribute a by a merge scan. s must
// be sorted by a. The result is a new relation with r's schema. When r is
// sorted by a, the result is sorted the same way, and the cost is one scan of
// each input plus the output writes. Otherwise r is sorted as r.SortBy(a)
// would sort it, and the sort streams straight into the merge
// (extsort.StreamCols): the result is what SortBy followed by Semijoin
// returns, rows, order and SortCols alike, and the cost is theirs less the
// write and the re-read of the sorted copy, 2⌈|r|/B⌉.
func Semijoin(r, s *Relation, a tuple.Attr) (*Relation, error) {
	if !s.SortedByAttr(a) {
		return nil, fmt.Errorf("relation: Semijoin on a right side not sorted by v%d", a)
	}
	if !r.SortedByAttr(a) {
		return semijoinSorting(r, s, a)
	}
	rc, sc := r.Col(a), s.Col(a)
	outs, _, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "semijoin",
		Params: strconv.Itoa(rc) + "|" + strconv.Itoa(sc),
		Inputs: []opcache.Input{memoIn(r), memoIn(s)},
	}, func() ([]*extmem.File, []int64, error) {
		out := r.Disk().NewFile(len(r.schema))
		out.Grow(r.n) // a filter's output is never larger than its input
		w, wd := out.NewWriter(), len(r.schema)
		rr, sr := r.Reader(), s.Reader()
		st := sr.Next()
		for cells, n := rr.Block(); n > 0; cells, n = rr.Block() {
			run := 0 // first tuple of the pending run of kept tuples
			for i := range n {
				v := cells[i*wd+rc]
				if st != nil && st[sc] < v {
					// Write the kept run before s moves on, so the write
					// and read charges interleave as in a tuple-at-a-time
					// merge.
					w.AppendCells(cells[run*wd : i*wd])
					run = i
					for st != nil && st[sc] < v {
						st = sr.Next()
					}
				}
				if st == nil || st[sc] != v {
					w.AppendCells(cells[run*wd : i*wd])
					run = i + 1
				}
			}
			w.AppendCells(cells[run*wd : n*wd])
			rr.Skip(n)
		}
		w.Close()
		return []*extmem.File{out}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: r.schema, file: outs[0], n: outs[0].Len(), sortCols: r.sortCols}, nil
}

// semijoinSorting is Semijoin on an r not sorted by a. Not memoized: its
// one caller, the full reducer, runs once per query, so an entry would cost
// memory and never be hit.
func semijoinSorting(r, s *Relation, a tuple.Attr) (*Relation, error) {
	order := r.keyOrder([]tuple.Attr{a})
	src, err := r.ownFile()
	if err != nil {
		return nil, err
	}
	st, err := extsort.StreamCols(src, order)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rc, sc := order[0], s.Col(a)
	out := r.Disk().NewFile(len(r.schema))
	out.Grow(r.n) // a filter's output is never larger than its input
	w, sr := out.NewWriter(), s.Reader()
	srow := sr.Next()
	for row := st.Next(); row != nil; row = st.Next() {
		v := row[rc]
		for srow != nil && srow[sc] < v {
			srow = sr.Next()
		}
		if srow != nil && srow[sc] == v {
			w.Append(row)
		}
	}
	w.Close()
	return &Relation{schema: r.schema, file: out, n: out.Len(), sortCols: order}, nil
}

// valueProbe answers membership in a sorted, distinct value set for a stream
// of probes. A probe equal to the previous one reuses its answer; a larger one
// gallops forward from the previous position, as Leapfrog Triejoin's seek
// does, which costs amortised O(1) per probe on a sorted stream; a smaller one
// binary-searches the prefix before that position.
type valueProbe struct {
	vals []int64
	pos  int // lower bound of last in vals
	last int64
	in   bool
	have bool
}

func (p *valueProbe) contains(v int64) bool {
	if p.have && v == p.last {
		return p.in
	}
	vals := p.vals
	lo, hi := 0, p.pos
	if !p.have || v > p.last {
		// The lower bound of v is at or after pos: double the stride until
		// it passes v, then search the last stride.
		lo, hi = p.pos, p.pos
		for step := 1; hi < len(vals) && vals[hi] < v; step *= 2 {
			lo, hi = hi+1, min(hi+step, len(vals))
		}
	}
	i, _ := slices.BinarySearch(vals[lo:hi], v)
	p.pos, p.last, p.have = lo+i, v, true
	p.in = p.pos < len(vals) && vals[p.pos] == v
	return p.in
}

// SemijoinValues computes r ⋉ V over the tuples of r from index from on,
// where V is an in-memory set of values on attribute a, given sorted and
// distinct (e.g. a chunk's Values, for computing R(e')(M1) in Algorithm 2).
// vals goes into the memo key unchanged. The result keeps r's schema and
// sort order.
//
// On a view sorted by a, the filter stops at the first tuple whose value is
// above every value of vals, and stop is that tuple's index in r (r.Len()
// when there is none; from when vals is empty, which reads nothing). No
// tuple from there on can be kept, and a filter by a larger value set can
// resume there: a sequence of filters by increasing value sets, each from
// the previous one's stop, is one merge pass over r. The block holding the
// stop tuple is read, since that is where the stop shows, so the resumed
// filter reads it again. Before the stop, a block whose values all lie below
// vals[0] holds no member: it is read and charged but decided without a
// probe. In a block the filter does probe, tuples sharing a value are
// adjacent, and one probe decides the run. On any other view the filter
// reads all of r from from on, one probe per tuple, and stop is r.Len().
func SemijoinValues(r *Relation, a tuple.Attr, vals []int64, from int) (filtered *Relation, stop int, err error) {
	if from < 0 || from > r.n {
		panic(fmt.Sprintf("relation: SemijoinValues from %d out of bounds (len %d)", from, r.n))
	}
	c := r.Col(a)
	sorted, params := r.SortedByAttr(a), c<<1
	if sorted {
		// The sort claim decides where the filter stops, and so its rows
		// read and its charge, but it is view metadata that a content match
		// cannot see: it goes into the params, in the low bit.
		params |= 1
	}
	off, n := r.off+from, r.n-from
	outs, meta, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "semijoin-vals",
		Params: strconv.Itoa(params),
		Inputs: []opcache.Input{{File: r.file, Off: off, N: n}},
		Aux:    vals,
	}, func() ([]*extmem.File, []int64, error) {
		out := r.Disk().NewFile(len(r.schema))
		out.Grow(n) // a filter's output is never larger than its input
		w, wd := out.NewWriter(), len(r.schema)
		stop := n // relative to off, as the memo replays it
		if sorted && len(vals) == 0 {
			stop = 0
		}
		rd := r.file.NewRangeReader(off, stop)
		p := valueProbe{vals: vals}
		read := 0 // tuples before the current block window
	scan:
		for cells, k := rd.Block(); k > 0; cells, k = rd.Block() {
			if sorted && cells[(k-1)*wd+c] < vals[0] {
				rd.Skip(k)
				read += k
				continue
			}
			run := 0 // first tuple of the pending run of kept tuples
			for i := 0; i < k; {
				// [i, j) shares one value: on a sorted view the whole run,
				// otherwise just tuple i.
				v, j := cells[i*wd+c], i+1
				if sorted {
					if v > vals[len(vals)-1] {
						w.AppendCells(cells[run*wd : i*wd])
						stop = read + i
						break scan
					}
					for j < k && cells[j*wd+c] == v {
						j++
					}
				}
				if !p.contains(v) {
					w.AppendCells(cells[run*wd : i*wd])
					run = j
				}
				i = j
			}
			w.AppendCells(cells[run*wd : k*wd])
			rd.Skip(k)
			read += k
		}
		w.Close()
		return []*extmem.File{out}, []int64{int64(stop)}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return &Relation{schema: r.schema, file: outs[0], n: outs[0].Len(), sortCols: r.sortCols}, from + int(meta[0]), nil
}

// Project returns the projection of r onto the given attributes with
// duplicates removed (sort-based). The result is sorted by the projected
// columns. Memoized as one operator including the internal dedup sort.
func Project(r *Relation, attrs []tuple.Attr) (*Relation, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.Col(a)
	}
	schema := make(tuple.Schema, len(attrs))
	copy(schema, attrs)
	params := ""
	for i, c := range cols {
		if i > 0 {
			params += ","
		}
		params += strconv.Itoa(c)
	}
	outs, _, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   "project",
		Params: params,
		Inputs: []opcache.Input{memoIn(r)},
	}, func() ([]*extmem.File, []int64, error) {
		tmp := New(r.Disk(), schema)
		tmp.file.Grow(r.n)
		w := tmp.file.NewWriter()
		rd := r.Reader()
		buf := make(tuple.Tuple, len(cols))
		for t := rd.Next(); t != nil; t = rd.Next() {
			for i, c := range cols {
				buf[i] = t[c]
			}
			w.Append(buf)
		}
		w.Close()
		tmp.n = tmp.file.Len()
		res, err := tmp.SortDedupBy(attrs...)
		if err != nil {
			return nil, nil, err
		}
		return []*extmem.File{res.file}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	// SortDedupBy on the projected schema always yields the identity column
	// order (the projected columns first, in position order, then nothing).
	order := make([]int, len(schema))
	for i := range order {
		order[i] = i
	}
	return &Relation{schema: schema, file: outs[0], n: outs[0].Len(), sortCols: order}, nil
}

// DistinctValues returns the sorted distinct values of attribute a,
// materialized in memory. Only for use where the count is known to be small
// (the caller accounts memory); cost is one scan if sorted by a, else a sort.
func DistinctValues(r *Relation, a tuple.Attr) ([]int64, error) {
	s := r
	if !r.SortedByAttr(a) {
		var err error
		s, err = r.SortBy(a)
		if err != nil {
			return nil, err
		}
	}
	var out []int64
	err := s.Groups(a, func(g Group) error {
		out = append(out, g.Value)
		return nil
	})
	return out, err
}

// Contents drains the view into memory for verification in tests (charges
// the scan). Not for algorithm code.
func Contents(r *Relation) []tuple.Tuple {
	var out []tuple.Tuple
	r.Scan(func(t tuple.Tuple) { out = append(out, tuple.Clone(t)) })
	return out
}

// SortTuples orders in-memory rows lexicographically; test helper shared by
// several packages.
func SortTuples(rows []tuple.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return tuple.CompareFull(rows[i], rows[j]) < 0 })
}

// Equal reports whether two relations hold the same tuple multiset, ignoring
// order but respecting schema column order. Test helper; charges scans.
func Equal(a, b *Relation) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	at, bt := Contents(a), Contents(b)
	SortTuples(at)
	SortTuples(bt)
	for i := range at {
		if tuple.CompareFull(at[i], bt[i]) != 0 {
			return false
		}
	}
	return true
}
