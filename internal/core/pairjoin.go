package core

import (
	"fmt"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// PairJoin is the instance-optimal 2-relation join of Section 3: a single
// synchronized scan of both relations (sorted by the join attribute), with a
// blocked nested-loop join confined to values heavy on BOTH sides. Its I/O
// cost is Õ(N1/B + N2/B + Σ_a N1|a·N2|a/(M·B)) = Õ(N/B + |R1 ⋈ R2|/(M·B)),
// i.e. instance optimal. perPair receives each joining tuple pair; the
// tuples alias buffers that are invalid after the callback returns.
// Memory: each value's group is buffered up to M tuples per side, and the
// join grabs what it buffered, at most 2M, releasing it before the next
// value (and on every error path).
func PairJoin(rA, rB *relation.Relation, a tuple.Attr, perPair func(ta, tb tuple.Tuple) error) error {
	if !rA.SortedByAttr(a) || !rB.SortedByAttr(a) {
		return fmt.Errorf("core: PairJoin inputs not sorted by v%d", a)
	}
	d := rA.Disk()
	m := d.M()
	ca, cb := rA.Col(a), rB.Col(a)
	ra, rb := rA.Reader(), rB.Reader()
	ta, tb := ra.Next(), rb.Next()
	iA, iB := 0, 0
	var bufA, bufB []tuple.Tuple
	for ta != nil && tb != nil {
		switch {
		case ta[ca] < tb[cb]:
			ta = ra.Next()
			iA++
			continue
		case tb[cb] < ta[ca]:
			tb = rb.Next()
			iB++
			continue
		}
		v := ta[ca]
		startA, startB := iA, iB

		// Buffer A's group up to M tuples.
		bufA = bufA[:0]
		for ta != nil && ta[ca] == v && len(bufA) < m {
			bufA = append(bufA, tuple.Clone(ta))
			ta = ra.Next()
			iA++
		}
		held := len(bufA)
		if err := d.Grab(held); err != nil {
			d.Release(held)
			return err
		}
		if ta == nil || ta[ca] != v {
			// A's group fit in memory: stream B's group against it.
			for tb != nil && tb[cb] == v {
				for _, at := range bufA {
					if err := perPair(at, tb); err != nil {
						d.Release(held)
						return err
					}
				}
				tb = rb.Next()
				iB++
			}
			d.Release(held)
			continue
		}
		// A's group is heavy. Try buffering B's group.
		bufB = bufB[:0]
		for tb != nil && tb[cb] == v && len(bufB) < m {
			bufB = append(bufB, tuple.Clone(tb))
			tb = rb.Next()
			iB++
		}
		held += len(bufB)
		if err := d.Grab(len(bufB)); err != nil {
			d.Release(held)
			return err
		}
		if tb == nil || tb[cb] != v {
			// B's group fit: pair the buffered prefixes, then stream the
			// rest of A's group against B's buffer.
			for _, at := range bufA {
				for _, bt := range bufB {
					if err := perPair(at, bt); err != nil {
						d.Release(held)
						return err
					}
				}
			}
			for ta != nil && ta[ca] == v {
				for _, bt := range bufB {
					if err := perPair(ta, bt); err != nil {
						d.Release(held)
						return err
					}
				}
				ta = ra.Next()
				iA++
			}
			d.Release(held)
			continue
		}
		// Both groups heavy: finish measuring their extents, then run a
		// blocked nested-loop join over the group views (the only place the
		// quadratic N1|a·N2|a/(M·B) term arises, exactly as in Section 3).
		d.Release(held)
		for ta != nil && ta[ca] == v {
			ta = ra.Next()
			iA++
		}
		for tb != nil && tb[cb] == v {
			tb = rb.Next()
			iB++
		}
		ga := rA.View(startA, iA-startA)
		gb := rB.View(startB, iB-startB)
		err := BlockedNLJ(ga, gb, func(rows []tuple.Tuple, bt tuple.Tuple) error {
			for _, at := range rows {
				if err := perPair(at, bt); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// BlockedNLJ is the classic blocked nested-loop join over two views with no
// join predicate applied (the caller restricts the views): each memory chunk
// of A is passed to perChunk once per tuple of B, so the pairs come chunk by
// chunk, then B tuple by B tuple, then chunk row by chunk row. Cost:
// ceil(|A|/M)·|B|/B + |A|/B. Charged under the "nested-loop" phase when
// phase accounting is enabled.
func BlockedNLJ(rA, rB *relation.Relation, perChunk func(rows []tuple.Tuple, tb tuple.Tuple) error) error {
	var err error
	rA.Disk().WithPhase("nested-loop", func() {
		err = rA.LoadChunks(func(c *relation.Chunk) error {
			rows := c.Rows()
			rd := rB.Reader()
			for bt := rd.Next(); bt != nil; bt = rd.Next() {
				if err := perChunk(rows, bt); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return err
}

// joinedSchema returns the concatenation of a's schema with b's columns for
// attributes not already present, plus the column mapping for b.
func joinedSchema(a, b tuple.Schema) (out tuple.Schema, bKeep []int) {
	out = a.Clone()
	for i, at := range b {
		if !a.Contains(at) {
			out = append(out, at)
			bKeep = append(bKeep, i)
		}
	}
	return out, bKeep
}

// MaterializePairJoin runs PairJoin and writes the combined tuples to a new
// relation whose schema is A's columns followed by B's non-shared columns.
// Memoized: repeating the join on identical inputs (e.g. on a later dry-run
// branch) clones the recorded output and replays the recorded charges,
// including the blocked-NLJ portion's "nested-loop" phase attribution.
func MaterializePairJoin(rA, rB *relation.Relation, a tuple.Attr) (*relation.Relation, error) {
	// Sortedness is view metadata, not file content: guard before the memo so
	// the error behaviour is identical with the memo on or off.
	if !rA.SortedByAttr(a) || !rB.SortedByAttr(a) {
		return nil, fmt.Errorf("core: PairJoin inputs not sorted by v%d", a)
	}
	schema, bKeep := joinedSchema(rA.Schema(), rB.Schema())
	outs, _, err := opcache.Do(rA.Disk(), opcache.Op{
		Kind:   "pairjoin-mat",
		Params: fmt.Sprintf("%d|%d|%v", rA.Col(a), rB.Col(a), bKeep),
		Inputs: []opcache.Input{rA.MemoInput(), rB.MemoInput()},
	}, func() ([]*extmem.File, []int64, error) {
		b := relation.NewBuilder(rA.Disk(), schema)
		buf := make(tuple.Tuple, len(schema))
		err := PairJoin(rA, rB, a, func(ta, tb tuple.Tuple) error {
			copy(buf, ta)
			for i, c := range bKeep {
				buf[len(ta)+i] = tb[c]
			}
			b.Add(buf)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return []*extmem.File{b.Finish().File()}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	return relation.FromFile(outs[0], schema, nil), nil
}
