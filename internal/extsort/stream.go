package extsort

import "acyclicjoin/internal/extmem"

// Stream hands out the rows of a column sort in order without writing the
// sorted file; see StreamCols.
type Stream struct {
	d    *extmem.Disk
	w    int
	held int // tuples of working space grabbed until Close
	// A single run is served from run formation's buffer, in perm order.
	sc   *runScratch
	perm []int32
	// More runs are served by the last merge; pending marks a head handed
	// out and not yet consumed.
	t       *loserTree[colOrder]
	pending bool
}

// StreamCols sorts f's tuples lexicographically on the given column
// positions, as SortCols does, but hands the sorted rows to the caller
// through Next instead of writing them to a file. Runs are formed and merged
// down to one fan-in exactly as SortCols forms and merges them; the rows then
// come from the last merge, or from memory when f fits in one run. So the
// stream charges what SortCols charges less the ⌈n/B⌉ writes of the sorted
// file, all under the "sort" phase, and its memory peak is at most
// SortCols's: one load and an output block, or a merge's block buffers, are
// held until Close. The consumer's own charges stay under its phase. Never
// memoized: there is no output file to record.
//
// The caller must Close the stream, also when it stops early.
func StreamCols(f *extmem.File, cols []int) (s *Stream, err error) {
	d := f.Disk()
	s = &Stream{d: d, w: f.Arity()}
	cmp := colOrder{cols}
	d.WithPhase("sort", func() {
		m := d.M()
		if n := f.Len(); n <= m {
			if n == 0 {
				return
			}
			// One run: the load plus the consumer's output block, as run
			// formation grabs for the load plus the run's.
			s.held = n + d.B()
			if err = d.Grab(s.held); err != nil {
				return
			}
			s.sc = getScratch(m, f.Arity(), f.Slot())
			s.perm = loadRun(s.sc, f.NewReader(), cmp, n, s.w, m)
			return
		}
		var runs []*extmem.File
		if runs, err = formRuns(f, cmp, false); err != nil {
			return
		}
		if runs, err = mergeDown(runs, cmp, false, d.M()/d.B()-1); err != nil {
			return
		}
		// The last merge's grab: a block per run plus the output block.
		s.held = (len(runs) + 1) * d.B()
		if err = d.Grab(s.held); err != nil {
			return
		}
		s.t = newLoserTree(runs, cmp)
		s.t.sortDisk = d
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Next returns the next row in sort order, or nil when the stream is
// exhausted. The row aliases the stream's buffers or disk storage: it must
// not be modified and is valid until the next call.
func (s *Stream) Next() []int64 {
	if t := s.t; t != nil {
		if s.pending {
			t.advance(int(t.node[0]))
		}
		i := t.node[0]
		if s.pending = !t.done[i]; !s.pending {
			return nil
		}
		return t.row(i)
	}
	if len(s.perm) == 0 {
		return nil
	}
	i := int(s.perm[0])
	s.perm = s.perm[1:]
	return s.sc.buf[i*s.w : (i+1)*s.w]
}

// Close releases the stream's working space and buffers.
func (s *Stream) Close() {
	if s.t != nil {
		putHeads(s.t.runs)
		s.t = nil
	}
	if s.sc != nil {
		scratchPool.Put(s.sc)
		s.sc, s.perm = nil, nil
	}
	s.d.Release(s.held)
	s.held = 0
}
