// Package extsort implements external multi-way merge sort over simulated
// disk files, the standard O((N/B)·log_{M/B}(N/B)) algorithm: runs of M
// tuples are formed in memory, then merged (M/B − 1) ways until one run
// remains. All I/Os and in-memory working space are charged to the disk's
// accountant.
//
// Two entry-point families exist. SortCols/SortDedupCols order by a column
// position list; they run the monomorphized kernel (kernel.go) and consult
// the disk's operator memo (internal/opcache) when one is attached, so
// repeated identical sorts cost near-zero host time while charging exactly
// the same simulated I/O. Sort/SortDedup accept an arbitrary comparator
// function and are never memoized (a function cannot be part of a memo key).
// StreamCols (stream.go) is SortCols handing its rows to the caller instead
// of writing them to a file.
package extsort

import (
	"strconv"
	"strings"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/tuple"
)

// Cmp orders tuples; it must be a strict weak ordering returning <0, 0, >0.
type Cmp func(a, b tuple.Tuple) int

// ByCols returns a comparator ordering tuples lexicographically on the given
// column positions.
func ByCols(cols []int) Cmp {
	return func(a, b tuple.Tuple) int { return tuple.Compare(a, b, cols) }
}

// Full returns a comparator over all columns of arity-n tuples.
func Full() Cmp {
	return func(a, b tuple.Tuple) int { return tuple.CompareFull(a, b) }
}

// Sort returns a new file with the tuples of f ordered by cmp. Never
// memoized; prefer SortCols when the order is a column list.
func Sort(f *extmem.File, cmp Cmp) (*extmem.File, error) {
	return sortFile(f, cmpOrder{cmp}, "", false)
}

// SortDedup returns a new file ordered by cmp with tuples comparing equal
// under cmp collapsed to one occurrence. To deduplicate a relation under set
// semantics pass a full-tuple comparator (e.g. a column order covering every
// column). Never memoized; prefer SortDedupCols when the order is a column
// list.
func SortDedup(f *extmem.File, cmp Cmp) (*extmem.File, error) {
	return sortFile(f, cmpOrder{cmp}, "", true)
}

// SortCols returns a new file with the tuples of f ordered lexicographically
// on the given column positions. When an operator memo is attached to f's
// disk (see opcache.Enable) and an identical sort was recorded before, the
// result is cloned and the recorded charges are replayed instead of redoing
// the work.
func SortCols(f *extmem.File, cols []int) (*extmem.File, error) {
	return sortFile(f, colOrder{cols}, sortParams(cols), false)
}

// SortDedupCols is SortCols with tuples comparing equal on the column list
// collapsed to one occurrence (the first, under the stable order).
func SortDedupCols(f *extmem.File, cols []int) (*extmem.File, error) {
	return sortFile(f, colOrder{cols}, sortParams(cols), true)
}

// sortParams encodes a column order as memo params.
func sortParams(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// sortFile labels the sort's I/O with the "sort" phase and routes through
// the operator memo when params is non-empty (the column-order entry points)
// and a memo is attached. The memo's charge tape records the sort's memory
// peak through the accountant.
func sortFile[C rowCmp](f *extmem.File, cmp C, params string, dedup bool) (out *extmem.File, err error) {
	d := f.Disk()
	d.WithPhase("sort", func() {
		if params == "" {
			out, err = sortKernel(f, cmp, dedup)
			return
		}
		if dedup {
			params = "dedup;" + params
		}
		var outs []*extmem.File
		outs, _, err = opcache.Do(d,
			opcache.Op{Kind: "sort", Params: params, Inputs: []opcache.Input{opcache.In(f)}},
			func() ([]*extmem.File, []int64, error) {
				o, kerr := sortKernel(f, cmp, dedup)
				if kerr != nil {
					return nil, nil, kerr
				}
				return []*extmem.File{o}, nil, nil
			})
		if err == nil {
			out = outs[0]
		}
	})
	return out, err
}

// IsSorted reports whether f is ordered by cmp, charging the scan's I/Os.
func IsSorted(f *extmem.File, cmp Cmp) bool {
	r := f.NewReader()
	prev := r.Next()
	if prev == nil {
		return true
	}
	p := tuple.Clone(prev)
	for t := r.Next(); t != nil; t = r.Next() {
		if cmp(p, t) > 0 {
			return false
		}
		copy(p, t)
	}
	return true
}
