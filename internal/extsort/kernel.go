// The sort/merge kernel: run formation over a flat []int64 row buffer, and a
// loser-tree k-way merge with inlined comparisons.
//
// Run formation sorts each M-tuple load through a permutation of its row
// indices. Under the column-order comparator behind every relation-level sort
// (SortCols/SortDedupCols) it is a packed-key sort: each row's first key
// value, less the load's minimum, goes above the row index in one uint64, and
// slices.Sort orders those keys. They are distinct, so the result is the
// stable order on that column; each group tied on it is then sorted the same
// way on the next key column. A stable sort's output permutation is unique,
// so the kernel forms exactly the runs any stable comparison sort forms, and
// since the permutation is host work on rows already in memory, no charge
// moves. The bottom-up merge sort runs only for an arbitrary Cmp (the
// baseline's hash-bucket orders) and for a column whose range over the rows
// being sorted does not fit beside the index.
//
// The kernel is written against a small comparator interface implemented by
// value structs, so the compiler monomorphizes the hot loops per comparator
// shape. Run formation's buffers are pooled across sorts.
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
	"math/bits"
	"slices"
	"sync"

	"acyclicjoin/internal/extmem"
)

// rowCmp orders rows given as []int64 slices of the file's arity. Implemented
// by value structs so generic kernel code devirtualizes the calls.
type rowCmp interface {
	compare(a, b []int64) int
	// sortRun sorts perm (row indices into buf, rows of width w) stably;
	// aux and keys are scratch at least as long as perm.
	sortRun(perm, aux []int32, keys []uint64, buf []int64, w int)
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

// sortRun is the packed-key sort: perm by the first column, then each tied
// group by the remaining columns, recursively.
func (c colOrder) sortRun(perm, aux []int32, keys []uint64, buf []int64, w int) {
	n := len(perm)
	if n < 2 || len(c.cols) == 0 {
		return
	}
	if !packSort(perm, aux, keys, buf, w, c.cols[0]) {
		sequentialStableSortRows(perm, aux, buf, w, c)
		return
	}
	if len(c.cols) == 1 {
		return
	}
	rest, k := colOrder{c.cols[1:]}, c.cols[0]
	for lo := 0; lo < n; {
		v, hi := buf[int(perm[lo])*w+k], lo+1
		for hi < n && buf[int(perm[hi])*w+k] == v {
			hi++
		}
		rest.sortRun(perm[lo:hi], aux[lo:hi], keys, buf, w)
		lo = hi
	}
}

// packSort stably sorts perm by column k alone: the key of position i is the
// value of row perm[i] less the minimum over perm, shifted above i. It
// reports false, leaving perm as it was, when the value range does not fit
// beside the position bits.
func packSort(perm, aux []int32, keys []uint64, buf []int64, w, k int) bool {
	lo, hi := buf[int(perm[0])*w+k], buf[int(perm[0])*w+k]
	for _, p := range perm[1:] {
		v := buf[int(p)*w+k]
		lo, hi = min(lo, v), max(hi, v)
	}
	shift := bits.Len(uint(len(perm) - 1))
	if (uint64(hi)-uint64(lo))>>(64-shift) != 0 {
		return false
	}
	keys = keys[:len(perm)]
	for i, p := range perm {
		keys[i] = (uint64(buf[int(p)*w+k])-uint64(lo))<<shift | uint64(i)
	}
	slices.Sort(keys)
	copy(aux, perm)
	mask := uint64(1)<<shift - 1
	for i, key := range keys {
		perm[i] = aux[key&mask]
	}
	return true
}

// cmpOrder adapts an arbitrary Cmp to the kernel (closure dispatch per
// comparison; only the generic Sort/SortDedup entry points pay it).
type cmpOrder struct{ cmp Cmp }

func (c cmpOrder) compare(a, b []int64) int { return c.cmp(a, b) }

func (c cmpOrder) sortRun(perm, aux []int32, _ []uint64, buf []int64, w int) {
	sequentialStableSortRows(perm, aux, buf, w, c)
}

// runScratch is run formation's host memory: the load buffer, the sorted
// output, the permutation and its scratch, and the packed keys. It is pooled
// across sorts and handed back when run formation ends, so concurrent sorts on
// different disks never contend on more than the pool itself.
type runScratch struct {
	buf, out []int64
	idx      []int32
	keys     []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// getScratch takes run scratch from the pool, sized for M-tuple loads of
// width w and output slots of width slot.
func getScratch(m, w, slot int) *runScratch {
	sc := scratchPool.Get().(*runScratch)
	sc.buf, sc.out = slices.Grow(sc.buf[:0], m*w)[:m*w], slices.Grow(sc.out[:0], m*slot)[:m*slot]
	sc.idx, sc.keys = slices.Grow(sc.idx[:0], 2*m)[:2*m], slices.Grow(sc.keys[:0], m)[:m]
	return sc
}

// loadRun reads the next n ≤ m tuples of r into sc.buf and returns their
// stable sorted order as row indices into it.
func loadRun[C rowCmp](sc *runScratch, r *extmem.Reader, cmp C, n, w, m int) []int32 {
	buf, idx := sc.buf, sc.idx
	for i := 0; i < n; {
		cells, k := r.Block()
		k = min(k, n-i)
		copy(buf[i*w:(i+k)*w], cells)
		r.Skip(k)
		i += k
	}
	perm := idx[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	cmp.sortRun(perm, idx[m:m+n], sc.keys, buf, w)
	return perm
}

// sortKernel runs the full external sort. Its memory peak is run
// formation's grab, at most M+B: every merge holds (fanIn+1)·B = (M/B)·B ≤ M
// tuples.
func sortKernel[C rowCmp](f *extmem.File, cmp C, dedup bool) (*extmem.File, error) {
	d := f.Disk()
	runs, err := formRuns(f, cmp, dedup)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return d.NewFile(f.Arity()), nil
	}

	if runs, err = mergeDown(runs, cmp, dedup, 1); err != nil {
		return nil, err
	}
	return runs[0], nil
}

// mergeDown merges runs in passes of M/B − 1 fan-in, left to right, until at
// most keep remain.
func mergeDown[C rowCmp](runs []*extmem.File, cmp C, dedup bool, keep int) ([]*extmem.File, error) {
	d := runs[0].Disk()
	fanIn := d.M()/d.B() - 1 // >= 2, enforced by extmem.Config.Validate
	for len(runs) > keep {
		var next []*extmem.File
		for lo := 0; lo < len(runs); lo += fanIn {
			merged, err := mergeRuns(runs[lo:min(lo+fanIn, len(runs))], cmp, dedup)
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs, nil
}

// formRuns reads the file in M-tuple loads, stable-sorts each in memory, and
// writes one run per load (deduplicating adjacent equals when asked) with one
// AppendCells, which charges exactly as one Append per tuple. Memory: the
// tuples a load fills, min(M, remaining), plus the writer's output block,
// grabbed per load and released before the next (so the hi-water
// contribution is one load's worth, at most M+B). A refused grab releases
// what it asked for before the error returns.
func formRuns[C rowCmp](f *extmem.File, cmp C, dedup bool) ([]*extmem.File, error) {
	d := f.Disk()
	m, w, slot := d.M(), f.Arity(), f.Slot()
	r := f.NewReader()
	sc := getScratch(m, w, slot)
	defer scratchPool.Put(sc)
	buf, out := sc.buf, sc.out

	var runs []*extmem.File
	for r.Remaining() > 0 {
		n := min(m, r.Remaining())
		grab := n + d.B()
		if err := d.Grab(grab); err != nil {
			d.Release(grab)
			return nil, err
		}
		perm := loadRun(sc, r, cmp, n, w, m)

		k, prev := 0, -1
		for _, pi := range perm {
			i := int(pi)
			if !dedup || prev < 0 || cmp.compare(buf[prev*w:prev*w+w], buf[i*w:i*w+w]) != 0 {
				copy(out[k*slot:k*slot+w], buf[i*w:i*w+w])
				k++
			}
			prev = i
		}
		run := d.NewFile(w)
		run.Grow(k)
		wr := run.NewWriter()
		wr.AppendCells(out[:k*slot])
		wr.Close()
		runs = append(runs, run)
		d.Release(grab)
	}
	return runs, nil
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
			k += copy(dst[k:hi], src[i:mid])
			copy(dst[k:hi], src[j:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &perm[0] {
		copy(perm, src)
	}
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
	// sortDisk, when set, charges each block refill under the "sort" phase
	// of that disk: a streamed merge's reads interleave with its consumer's
	// charges, which stay under the caller's phase.
	sortDisk *extmem.Disk
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
	if t.sortDisk == nil {
		h.cells, h.n = h.rd.Block()
	} else {
		t.sortDisk.WithPhase("sort", func() { h.cells, h.n = h.rd.Block() })
	}
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
		d.Release(mem)
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
