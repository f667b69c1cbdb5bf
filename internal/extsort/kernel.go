// The sort/merge kernel: run formation over a flat []int64 row buffer with a
// stable index sort, and a loser-tree k-way merge with inlined comparisons.
//
// The kernel is written against a tiny comparator interface implemented by
// value structs, so the compiler monomorphizes the hot loops per comparator
// shape: the column-order comparator used by every relation-level sort runs
// with no interface or closure dispatch, while arbitrary Cmp functions (the
// baseline's hash-bucket orders) reuse the same kernel through a thin
// adapter. Row buffers and index permutations are pooled across sorts.
//
// I/O and memory accounting are charge-identical to the previous
// tuple-at-a-time implementation in every successful run: the same run
// boundaries, the same merge grouping (M/B − 1 fan-in, left to right), the
// same reader/writer block charges, and the same dedup semantics (stable
// sort, keep the first tuple of each equal group). The only accounting
// change is deliberate: run formation grabs M+B tuples (buffer plus output
// block) instead of under-charging M.
package extsort

import (
	"runtime"
	"sync"

	"acyclicjoin/internal/extmem"
)

// rowCmp orders rows given as []int64 slices of the file's arity. Implemented
// by value structs so generic kernel code devirtualizes the calls.
type rowCmp interface {
	compare(a, b []int64) int
}

// colOrder compares rows lexicographically on fixed column positions; the
// specialized comparator behind SortCols/SortDedupCols.
type colOrder struct{ cols []int }

func (c colOrder) compare(a, b []int64) int {
	for _, k := range c.cols {
		av, bv := a[k], b[k]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cmpOrder adapts an arbitrary Cmp to the kernel (closure dispatch per
// comparison; only the generic Sort/SortDedup entry points pay it).
type cmpOrder struct{ cmp Cmp }

func (c cmpOrder) compare(a, b []int64) int { return c.cmp(a, b) }

// Slice pools shared by all sorts. Buffers are handed back at the end of each
// run-formation and merge, so concurrent sorts on different disks never
// contend on more than the pool itself.
var (
	i64Pool = sync.Pool{}
	i32Pool = sync.Pool{}
)

func getI64(n int) []int64 {
	if v := i64Pool.Get(); v != nil {
		if s := *(v.(*[]int64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int64, n)
}

func putI64(s []int64) { i64Pool.Put(&s) }

func getI32(n int) []int32 {
	if v := i32Pool.Get(); v != nil {
		if s := *(v.(*[]int32)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int32, n)
}

func putI32(s []int32) { i32Pool.Put(&s) }

// sortKernel runs the full external sort and additionally reports the peak
// working-space grab (relative to the memory in use when the sort started),
// kept for verification in tests (the operator memo records the same peak
// through the accountant). The peak is the run-formation grab M+B:
// every merge holds (fanIn+1)·B = (M/B)·B ≤ M tuples, which never exceeds it.
func sortKernel[C rowCmp](f *extmem.File, cmp C, dedup bool) (*extmem.File, int, error) {
	d := f.Disk()
	peak := d.M() + d.B()

	runs, err := formRuns(f, cmp, dedup)
	if err != nil {
		return nil, 0, err
	}
	if len(runs) == 0 {
		return d.NewFile(f.Arity()), peak, nil
	}

	fanIn := d.M()/d.B() - 1 // >= 2, enforced by extmem.Config.Validate
	for len(runs) > 1 {
		var next []*extmem.File
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			if mem := (hi - lo + 1) * d.B(); hi-lo > 1 && mem > peak {
				peak = mem
			}
			merged, err := mergeRuns(runs[lo:hi], cmp, dedup)
			if err != nil {
				return nil, 0, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], peak, nil
}

// formRuns reads the file in M-tuple loads, stable-sorts each in memory, and
// writes one run per load (deduplicating adjacent equals when asked). Memory:
// the M-tuple buffer plus the writer's output block, M+B in total, grabbed
// per load and released before the next (so the hi-water contribution is one
// load's worth, like the original tuple-at-a-time code — which under-charged
// by the output block).
func formRuns[C rowCmp](f *extmem.File, cmp C, dedup bool) ([]*extmem.File, error) {
	d := f.Disk()
	m, w := d.M(), f.Arity()
	grab := m + d.B()
	r := f.NewReader()
	buf := getI64(m * w)
	idx := getI32(2 * m)
	defer putI64(buf)
	defer putI32(idx)

	var runs []*extmem.File
	for {
		if err := d.Grab(grab); err != nil {
			return nil, err
		}
		n := 0
		for n < m {
			cells, k := r.Block()
			if k == 0 {
				break
			}
			k = min(k, m-n)
			copy(buf[n*w:(n+k)*w], cells)
			r.Skip(k)
			n += k
		}
		if n == 0 {
			d.Release(grab)
			break
		}
		perm := idx[:n]
		for i := range perm {
			perm[i] = int32(i)
		}
		stableSortRows(perm, idx[m:m+n], buf, w, cmp)

		run := d.NewFile(w)
		run.Grow(n)
		wr := run.NewWriter()
		prev := -1
		for _, pi := range perm {
			i := int(pi)
			if dedup && prev >= 0 && cmp.compare(buf[prev*w:prev*w+w], buf[i*w:i*w+w]) == 0 {
				prev = i
				continue
			}
			wr.Append(buf[i*w : i*w+w])
			prev = i
		}
		wr.Close()
		runs = append(runs, run)
		d.Release(grab)
		if n < m {
			break
		}
	}
	return runs, nil
}

// parallelSortMin is the permutation length below which spawning goroutines
// costs more than the sort itself; small runs stay sequential.
const parallelSortMin = 2048

// stableSortRows sorts perm (row indices into buf, rows of width w) stably.
// Large permutations are split into contiguous chunks sorted concurrently
// across GOMAXPROCS goroutines and merged pairwise in parallel rounds; a
// stable sort's output is unique, so the result is bit-identical to the
// sequential sort at any worker count. The work is CPU-only — comparisons of
// already-resident rows — so the simulated machine's charges are untouched by
// construction.
func stableSortRows[C rowCmp](perm, aux []int32, buf []int64, w int, cmp C) {
	n := len(perm)
	if n < 2 {
		return
	}
	if p := runtime.GOMAXPROCS(0); n >= parallelSortMin && p > 1 {
		parallelStableSortRows(perm, aux, buf, w, cmp, p)
		return
	}
	sequentialStableSortRows(perm, aux, buf, w, cmp)
}

// sequentialStableSortRows is the bottom-up merge sort: stable,
// allocation-free (aux is caller-provided), and all comparisons go through
// the monomorphized comparator.
func sequentialStableSortRows[C rowCmp](perm, aux []int32, buf []int64, w int, cmp C) {
	n := len(perm)
	src, dst := perm, aux
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				a, b := int(src[i]), int(src[j])
				if cmp.compare(buf[a*w:a*w+w], buf[b*w:b*w+w]) <= 0 {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// parallelStableSortRows sorts perm with p-way chunk parallelism: contiguous
// chunks are sorted concurrently (each entirely within its own perm/aux
// windows), then adjacent pairs are stably merged in parallel rounds,
// alternating between perm and aux as source and destination. Merges prefer
// the left (earlier) run on ties, so stability — and therefore the unique
// output permutation — is preserved.
func parallelStableSortRows[C rowCmp](perm, aux []int32, buf []int64, w int, cmp C, p int) {
	n := len(perm)
	chunk := (n + p - 1) / p
	bounds := make([]int, 0, p+1)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, lo)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sequentialStableSortRows(perm[lo:hi], aux[lo:hi], buf, w, cmp)
		}(lo, hi)
	}
	bounds = append(bounds, n)
	wg.Wait()

	// Each round halves the chunk count. Chunk sorts leave their results in
	// perm, so the first round merges perm -> aux.
	src, dst := perm, aux
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+2)
		var mw sync.WaitGroup
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			next = append(next, lo)
			mw.Add(1)
			go func(lo, mid, hi int) {
				defer mw.Done()
				mergeRows(src, dst, lo, mid, hi, buf, w, cmp)
			}(lo, mid, hi)
		}
		if i+1 < len(bounds) {
			// Odd chunk count: the unpaired tail carries over unchanged.
			lo := bounds[i]
			next = append(next, lo)
			copy(dst[lo:n], src[lo:n])
		}
		next = append(next, n)
		mw.Wait()
		bounds = next
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// mergeRows stably merges the sorted row-index runs src[lo:mid] and
// src[mid:hi] into dst[lo:hi], preferring the left run on ties.
func mergeRows[C rowCmp](src, dst []int32, lo, mid, hi int, buf []int64, w int, cmp C) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		a, b := int(src[i]), int(src[j])
		if cmp.compare(buf[a*w:a*w+w], buf[b*w:b*w+w]) <= 0 {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
		k++
	}
	k += copy(dst[k:hi], src[i:mid])
	copy(dst[k:hi], src[j:hi])
}

// loserTree merges k runs with a tournament tree of losers: each pop costs
// one leaf-to-root replay of ⌈log2 k⌉ inlined comparisons, against the
// container/heap version's interface calls and per-tuple head clones. Leaves
// are padded to a power of two with permanently exhausted virtual runs.
// Exhausted runs order after live ones; ties between live runs break on the
// smaller run index, reproducing the heap's stable pop order exactly.
type loserTree[C rowCmp] struct {
	cmp  C
	w    int
	slot int
	k    int     // real runs
	node []int32 // node[0] = winner, node[1..K-1] = internal losers
	done []bool  // per leaf; virtual leaves start done
	runs []runHead
}

// runHead is one run's read position: its reader, the charged block window
// the reader's Block returned, and the index in it of the run's head row.
// Heads are rows of that window, read in place.
type runHead struct {
	rd    extmem.Reader
	cells []int64
	n, i  int
}

// headPool recycles the per-merge run heads.
var headPool sync.Pool

func getHeads(k int) []runHead {
	if v := headPool.Get(); v != nil {
		if s := *(v.(*[]runHead)); cap(s) >= k {
			return s[:k]
		}
	}
	return make([]runHead, k)
}

// putHeads hands hs back, dropping its references to the runs' files.
func putHeads(hs []runHead) {
	clear(hs)
	headPool.Put(&hs)
}

func newLoserTree[C rowCmp](runs []*extmem.File, cmp C) *loserTree[C] {
	k := len(runs)
	kPow := 1
	for kPow < k {
		kPow *= 2
	}
	t := &loserTree[C]{
		cmp:  cmp,
		w:    runs[0].Arity(),
		slot: runs[0].Slot(),
		k:    k,
		node: make([]int32, kPow),
		done: make([]bool, kPow),
		runs: getHeads(k),
	}
	for i, run := range runs {
		h := &t.runs[i]
		h.rd = *run.NewRangeReader(0, run.Len())
		h.cells, h.n = h.rd.Block()
		t.done[i] = h.n == 0
	}
	for i := k; i < kPow; i++ {
		t.done[i] = true
	}
	if kPow == 1 {
		t.node[0] = 0
		return t
	}
	t.node[0] = t.build(1)
	return t
}

// build computes the winner of the subtree rooted at internal node j,
// recording losers on the way up.
func (t *loserTree[C]) build(j int) int32 {
	if j >= len(t.node) {
		return int32(j - len(t.node))
	}
	a, b := t.build(2*j), t.build(2*j+1)
	if t.beats(a, b) {
		t.node[j] = b
		return a
	}
	t.node[j] = a
	return b
}

// beats reports whether run a's head must be emitted before run b's.
func (t *loserTree[C]) beats(a, b int32) bool {
	if t.done[a] || t.done[b] {
		if t.done[a] && t.done[b] {
			return a < b
		}
		return !t.done[a]
	}
	c := t.cmp.compare(t.row(a), t.row(b))
	if c != 0 {
		return c < 0
	}
	return a < b
}

func (t *loserTree[C]) row(i int32) []int64 {
	h := &t.runs[i]
	return h.cells[h.i*t.slot : h.i*t.slot+t.w]
}

// fill moves run i's head to its next row. Past the end of the block window
// it consumes the window and charges the next one, the moment a
// tuple-at-a-time reader would; at EOF it marks the run done.
func (t *loserTree[C]) fill(i int) {
	h := &t.runs[i]
	if h.i++; h.i < h.n {
		return
	}
	h.rd.Skip(h.n)
	h.cells, h.n = h.rd.Block()
	h.i = 0
	t.done[i] = h.n == 0
}

// advance refills run i and replays its leaf-to-root path.
func (t *loserTree[C]) advance(i int) {
	t.fill(i)
	if len(t.node) == 1 {
		return
	}
	wnr := int32(i)
	for j := (len(t.node) + i) / 2; j > 0; j /= 2 {
		if t.beats(t.node[j], wnr) {
			wnr, t.node[j] = t.node[j], wnr
		}
	}
	t.node[0] = wnr
}

// mergeRuns k-way merges sorted runs into one sorted output file. A single
// run passes through untouched (no memory grab, no I/O), like the original.
func mergeRuns[C rowCmp](runs []*extmem.File, cmp C, dedup bool) (*extmem.File, error) {
	d := runs[0].Disk()
	if len(runs) == 1 {
		return runs[0], nil
	}
	// Memory: one block buffer per input run plus one output block.
	mem := (len(runs) + 1) * d.B()
	if err := d.Grab(mem); err != nil {
		return nil, err
	}
	defer d.Release(mem)

	t := newLoserTree(runs, cmp)
	defer putHeads(t.runs)

	out := d.NewFile(runs[0].Arity())
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	out.Grow(total)
	wr := out.NewWriter()
	// last is the last written row (for dedup across runs); like the heads
	// it is read in place from its run.
	var last []int64
	for {
		i := t.node[0]
		if t.done[i] {
			break
		}
		row := t.row(i)
		if !dedup || last == nil || cmp.compare(last, row) != 0 {
			wr.Append(row)
			last = row
		}
		t.advance(int(i))
	}
	wr.Close()
	return out, nil
}
