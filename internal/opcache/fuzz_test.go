package opcache_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// FuzzOpMemoOracle is the differential oracle for the operator memo: a
// fuzz-chosen program of deterministic operators (sorts, dedup sorts,
// projections, semijoins, value filters with their resume indexes checked
// against a map oracle, view materializations, materialized pairwise joins,
// over whole relations or views starting mid-block) is interpreted twice
// per arm — the second interpretation
// re-issues identical operators, so with the memo attached it is served
// almost entirely by charge replay — and the memo-on arm must match the
// memo-off arm bit for bit: total stats, the per-phase breakdown, every
// output relation's bytes, and every error message.
func FuzzOpMemoOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 0, 1, 1, 3, 2, 5, 3, 7, 4, 10, 5, 12, 6, 14, 7, 15})
	f.Add([]byte{0, 7, 7, 7, 1, 1, 2, 2, 3, 0, 6, 5, 7, 170, 3, 85, 5, 243, 0, 15})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 6, 1, 7, 0, 7, 1})
	// The same four tuples as a block-aligned view of one base relation and
	// a view at offset 1 of the other, each filtered by the same values: the
	// unaligned filter touches one block more, so a replay keyed on
	// contents alone would undercharge it.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 1, 2, 3, 4, 5, 6, 7, 8, 64, 4, 10, 17, 66, 4, 138})
	f.Fuzz(func(t *testing.T, data []byte) {
		sOn, pOn, fpOn := interpretOps(t, data, true)
		sOff, pOff, fpOff := interpretOps(t, data, false)
		if sOn != sOff {
			t.Fatalf("stats diverge: memo %+v, direct %+v", sOn, sOff)
		}
		if !reflect.DeepEqual(pOn, pOff) {
			t.Fatalf("phase stats diverge: memo %+v, direct %+v", pOn, pOff)
		}
		if fpOn != fpOff {
			t.Fatalf("outputs diverge:\n--- memo ---\n%s\n--- direct ---\n%s", fpOn, fpOff)
		}
	})
}

// interpretOps decodes data into base relations plus an operator program,
// runs the program twice on one disk, and returns the charged stats, the
// per-phase breakdown, and a fingerprint of every intermediate result (tuple
// bytes and error strings, both passes).
func interpretOps(t *testing.T, data []byte, memo bool) (extmem.Stats, map[string]extmem.Stats, string) {
	t.Helper()
	d := extmem.NewDisk(extmem.Config{M: 32, B: 4})
	d.EnablePhases()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// The first byte once picked a memo entry budget; it is still consumed
	// so that every corpus entry decodes to the same program.
	next()
	if memo {
		opcache.Enable(d)
	}
	// Base relations over schema {0,1}; loading inputs is free, as in Run.
	restore := d.Suspend()
	base := make([]*relation.Relation, 2)
	for i := range base {
		var rows []tuple.Tuple
		for k := 0; k < 8; k++ {
			b := next()
			rows = append(rows, tuple.Tuple{int64(b % 8), int64(b / 8 % 8)})
		}
		base[i] = relation.FromTuples(d, tuple.Schema{0, 1}, rows)
	}
	restore()
	program := data
	if len(program) > 24 {
		program = program[:24]
	}
	d.ResetStats()
	d.ResetPhases()
	var fp strings.Builder
	for pass := 0; pass < 2; pass++ {
		rels := append([]*relation.Relation(nil), base...)
		for k := 0; k+1 < len(program); k += 2 {
			op, arg := program[k], program[k+1]
			r := rels[int(arg>>1)%len(rels)]
			s := rels[int(arg>>4)%len(rels)]
			// Pick the attribute from r's actual schema (projections shrink
			// it); two-relation ops need it on both sides.
			a := r.Schema()[int(arg%2)%len(r.Schema())]
			if (op%9 == 3 || op%9 == 7) && !s.Schema().Contains(a) {
				fmt.Fprintf(&fp, "op %d skip: v%d not shared\n", k, a)
				continue
			}
			var out *relation.Relation
			var err error
			switch op % 9 {
			case 0:
				out, err = r.SortBy(a)
			case 1:
				out, err = r.SortDedupBy(a)
			case 2:
				out, err = relation.Project(r, []tuple.Attr{a})
			case 3:
				out, err = relation.Semijoin(r, s, a)
			case 4, 5:
				// Two values from the start of r, or one from an index on.
				vals, from := []int64{int64(arg % 8)}, int(op/9)%(r.Len()+1)
				if op%9 == 4 {
					vals = append(vals, int64(arg/8%8))
					slices.Sort(vals)
					from = 0
				}
				vals = slices.Compact(vals)
				var stop int
				out, stop, err = relation.SemijoinValues(r, a, vals, from)
				if err == nil {
					if want := wantStop(r, a, vals, from); stop != want {
						t.Fatalf("op %d: SemijoinValues stopped at %d, want %d", k, stop, want)
					}
					fmt.Fprintf(&fp, "stop %d\n", stop)
				}
			case 6:
				out, err = r.Materialize()
			case 7:
				out, err = core.MaterializePairJoin(r, s, a)
			case 8:
				lo := int(op/9) % (r.Len() + 1)
				out = r.View(lo, int(arg>>4)%(r.Len()-lo+1))
			}
			if err != nil {
				fmt.Fprintf(&fp, "op %d err: %v\n", k, err)
				continue
			}
			fmt.Fprintf(&fp, "op %d: %s\n", k, fingerprint(out))
			if len(rels) < 10 {
				rels = append(rels, out)
			}
		}
		fp.WriteString("-- pass --\n")
	}
	return d.Stats(), d.PhaseStats(), fp.String()
}

// wantStop is the map oracle for SemijoinValues' resume index from index
// from on: on a view sorted by a, the index of the first tuple from there
// whose a-value is above every member of vals (from for an empty vals, the
// view's length when there is no such tuple); on any other view, its
// length. It scans without charging.
func wantStop(r *relation.Relation, a tuple.Attr, vals []int64, from int) int {
	if !r.SortedByAttr(a) {
		return r.Len()
	}
	if len(vals) == 0 {
		return from
	}
	restore := r.Disk().Suspend()
	defer restore()
	col, stop := r.Col(a), r.Len()
	i := 0
	r.Scan(func(t tuple.Tuple) {
		if i >= from && stop == r.Len() && t[col] > slices.Max(vals) {
			stop = i
		}
		i++
	})
	return stop
}

// fingerprint renders a relation's tuples without charging (the scan runs
// suspended so the two oracle arms compare pure operator costs).
func fingerprint(r *relation.Relation) string {
	restore := r.Disk().Suspend()
	defer restore()
	var b strings.Builder
	r.Scan(func(t tuple.Tuple) {
		fmt.Fprintf(&b, "%v;", t)
	})
	return b.String()
}
