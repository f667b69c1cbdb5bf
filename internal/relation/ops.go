package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"acyclicjoin/internal/extmem"
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

// Semijoin computes r ⋉ s on the shared attribute a by a merge scan. Both
// views must be sorted by a. The result is a new relation with r's schema,
// sorted the same way as r. Cost: one scan of each input plus the output
// writes.
func Semijoin(r, s *Relation, a tuple.Attr) (*Relation, error) {
	if !r.SortedByAttr(a) || !s.SortedByAttr(a) {
		return nil, fmt.Errorf("relation: Semijoin on views not sorted by v%d", a)
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
	return &Relation{schema: r.schema.Clone(), file: outs[0], n: outs[0].Len(), sortCols: r.sortCols}, nil
}

// filterValues is the shared memoized body of SemijoinValues and
// AntiSemijoinValues: one scan of r keeping tuples whose a-value membership
// in vals matches keep. vals goes into the memo key unchanged, so it must be
// sorted and distinct.
//
// On a view sorted by a, a block whose values all lie below vals[0] or above
// the last value holds no member, so it is decided whole without a probe:
// the semijoin keeps none of it and the anti-semijoin all of it. The block is
// still read and charged, and its output lands where the probing loop's
// would, so the charges do not depend on the skip. In a block the loop does
// probe, tuples sharing a value are adjacent, and one probe decides the run.
func filterValues(kind string, r *Relation, a tuple.Attr, vals []int64, keep bool) (*Relation, error) {
	c := r.Col(a)
	sorted := r.SortedByAttr(a)
	outs, _, err := opcache.Do(r.Disk(), opcache.Op{
		Kind:   kind,
		Params: strconv.Itoa(c),
		Inputs: []opcache.Input{memoIn(r)},
		Aux:    vals,
	}, func() ([]*extmem.File, []int64, error) {
		out := r.Disk().NewFile(len(r.schema))
		out.Grow(r.n) // a filter's output is never larger than its input
		w, wd := out.NewWriter(), len(r.schema)
		rd := r.Reader()
		p := valueProbe{vals: vals}
		for cells, n := rd.Block(); n > 0; cells, n = rd.Block() {
			if sorted && (len(vals) == 0 || cells[(n-1)*wd+c] < vals[0] || cells[c] > vals[len(vals)-1]) {
				if !keep {
					w.AppendCells(cells[:n*wd])
				}
				rd.Skip(n)
				continue
			}
			run := 0 // first tuple of the pending run of kept tuples
			for i := 0; i < n; {
				// [i, j) shares one value: on a sorted view the whole run,
				// otherwise just tuple i.
				v, j := cells[i*wd+c], i+1
				for sorted && j < n && cells[j*wd+c] == v {
					j++
				}
				if p.contains(v) != keep {
					w.AppendCells(cells[run*wd : i*wd])
					run = j
				}
				i = j
			}
			w.AppendCells(cells[run*wd : n*wd])
			rd.Skip(n)
		}
		w.Close()
		return []*extmem.File{out}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: r.schema.Clone(), file: outs[0], n: outs[0].Len(), sortCols: r.sortCols}, nil
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

// SemijoinValues computes r ⋉ V where V is an in-memory set of values on
// attribute a, given sorted and distinct (e.g. a chunk's Values, for
// computing R(e')(M1) in Algorithm 2). r need not be sorted. One scan plus
// output.
func SemijoinValues(r *Relation, a tuple.Attr, vals []int64) (*Relation, error) {
	return filterValues("semijoin-vals", r, a, vals, true)
}

// AntiSemijoinValues computes r ▷ V: tuples of r whose a-value is NOT in the
// sorted, distinct set vals. Used to peel light tuples away from heavy ones
// without re-sorting.
func AntiSemijoinValues(r *Relation, a tuple.Attr, vals []int64) (*Relation, error) {
	return filterValues("antisemijoin-vals", r, a, vals, false)
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
