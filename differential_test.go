package acyclicjoin

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"acyclicjoin/internal/baseline"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// randomTreeQuery builds a random Berge-acyclic query through the public
// builder: relation i>0 attaches to a random earlier relation by sharing
// exactly one of its attributes, and all other attributes are fresh, so the
// incidence graph is a tree by construction.
func randomTreeQuery(rng *rand.Rand) *Query {
	nRel := 2 + rng.Intn(4)
	qb := NewQuery()
	nextAttr := 0
	fresh := func() string { nextAttr++; return fmt.Sprintf("a%d", nextAttr-1) }
	attrsOf := make([][]string, nRel)
	for i := 0; i < nRel; i++ {
		arity := 1 + rng.Intn(3)
		var attrs []string
		if i > 0 {
			parent := attrsOf[rng.Intn(i)]
			attrs = append(attrs, parent[rng.Intn(len(parent))])
		}
		for len(attrs) < arity {
			attrs = append(attrs, fresh())
		}
		rng.Shuffle(len(attrs), func(x, y int) { attrs[x], attrs[y] = attrs[y], attrs[x] })
		attrsOf[i] = attrs
		qb.Relation(fmt.Sprintf("R%d", i), attrs...)
	}
	q, err := qb.Build()
	if err != nil {
		panic(err) // tree construction guarantees acyclicity
	}
	return q
}

// fillRandom populates the instance with small random tuples; a few trials
// mix string values in to exercise the dictionary encoding end to end.
func fillRandom(rng *rand.Rand, q *Query, inst *Instance, useStrings bool) {
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	for _, name := range q.Relations() {
		arity := len(q.AttributesOf(name))
		rows := 3 + rng.Intn(25)
		for r := 0; r < rows; r++ {
			vals := make([]Value, arity)
			for j := range vals {
				if useStrings && rng.Intn(4) == 0 {
					vals[j] = words[rng.Intn(len(words))]
				} else {
					vals[j] = rng.Intn(6)
				}
			}
			inst.MustAdd(name, vals...)
		}
	}
}

// oracleRows runs the internal-memory GenericJoin oracle on the same data
// and renders each result in the canonical attr=value form used below.
func oracleRows(t *testing.T, q *Query, inst *Instance) []string {
	t.Helper()
	disk := extmem.NewDisk(extmem.Config{M: 1024, B: 64})
	restore := disk.Suspend()
	in := relation.Instance{}
	for i, schema := range q.schemas {
		in[i] = relation.FromCells(disk, schema, inst.rels[i].cells)
	}
	restore()
	var out []string
	_, err := baseline.GenericJoin(q.graph, in, func(a tuple.Assignment) {
		row := Row{}
		for name, id := range q.attrIDs {
			if a.Has(id) {
				row[name] = inst.dicts[id].decode(a.Get(id))
			}
		}
		out = append(out, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	sort.Strings(out)
	return out
}

func canonRow(q *Query, row Row) string {
	parts := make([]string, 0, len(row))
	for _, a := range q.Attributes() {
		if v, ok := row[a]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", a, v))
		}
	}
	return fmt.Sprint(parts)
}

// TestDifferentialAgainstGenericJoin cross-checks the public Run — every
// strategy, exhaustive with and without pruning — against the independent
// GenericJoin oracle on ~100 random acyclic queries and instances. Counts
// and the emitted row multisets must agree exactly.
func TestDifferentialAgainstGenericJoin(t *testing.T) {
	const trials = 100
	configs := []struct {
		name string
		opts Options
	}{
		{"first", Options{Strategy: StrategyFirst}},
		{"smallest", Options{Strategy: StrategySmallest}},
		{"greedy", Options{Strategy: StrategyGreedy}},
		{"exhaustive", Options{Strategy: StrategyExhaustive}},
		{"exhaustive-noprune", Options{Strategy: StrategyExhaustive, NoPrune: true}},
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%5 == 0)
		want := oracleRows(t, q, inst)
		for _, cfg := range configs {
			opts := cfg.opts
			opts.Memory = 64
			opts.Block = 8
			var got []string
			res, err := Run(q, inst, opts, func(row Row) {
				got = append(got, canonRow(q, row))
			})
			if err != nil {
				t.Fatalf("trial %d %s on %v: %v", trial, cfg.name, q.Relations(), err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("trial %d %s: Count = %d, oracle = %d (relations %v)",
					trial, cfg.name, res.Count, len(want), q.Relations())
			}
			// The planner's defensive chooser clamps are believed structurally
			// unreachable; the counter must stay zero across the whole
			// random-query suite (see Result.ClampedChoices).
			if res.ClampedChoices != 0 {
				t.Fatalf("trial %d %s: ClampedChoices = %d, want 0 (relations %v)",
					trial, cfg.name, res.ClampedChoices, q.Relations())
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: emitted %d rows, oracle %d", trial, cfg.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: row %d = %q, oracle %q", trial, cfg.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEmittedRowsIndependent keeps every emitted Row and scribbles on it in
// the callback: every entry is overwritten and one is deleted, and the row is
// restored only after the next row has been built and delivered. Each row
// must still arrive matching the oracle, and every kept row must equal the
// oracle's decode at the end, so no two rows share a map and no row is built
// from an earlier one. It covers a line query routed through the Section 6
// dispatcher and a non-line tree, with strings that repeat across
// consecutive rows and ints above 255 (Go boxes smaller ones from a static
// table).
func TestEmittedRowsIndependent(t *testing.T) {
	words := []string{"ant", "bee", "cat"}
	for _, tc := range []struct {
		name string
		rels [][]string
		line bool
	}{
		{"line3", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}, true},
		{"tree", [][]string{{"a", "b"}, {"b", "c"}, {"b", "d"}, {"d", "e"}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qb := NewQuery()
			for i, attrs := range tc.rels {
				qb.Relation(fmt.Sprintf("R%d", i+1), attrs...)
			}
			q, err := qb.Build()
			if err != nil {
				t.Fatal(err)
			}
			if q.IsLine() != tc.line {
				t.Fatalf("IsLine = %v, want %v", q.IsLine(), tc.line)
			}
			rng := rand.New(rand.NewSource(7))
			val := func(attr string) Value {
				if attr == "a" || attr == "d" {
					return words[rng.Intn(len(words))]
				}
				return 1000*int(attr[0]-'a') + rng.Intn(6)
			}
			inst := q.NewInstance()
			for i, attrs := range tc.rels {
				for r := 0; r < 40; r++ {
					inst.MustAdd(fmt.Sprintf("R%d", i+1), val(attrs[0]), val(attrs[1]))
				}
			}
			want := oracleRows(t, q, inst)
			restore := func(dst, src Row) {
				clear(dst)
				maps.Copy(dst, src)
			}
			var kept, saved []Row
			var delivered []string
			res, err := Run(q, inst, Options{Memory: 64, Block: 8}, func(row Row) {
				delivered = append(delivered, canonRow(q, row))
				if n := len(kept); n > 0 {
					restore(kept[n-1], saved[n-1])
				}
				kept = append(kept, row)
				saved = append(saved, maps.Clone(row))
				for k := range row {
					row[k] = "scribbled"
				}
				for k := range row {
					delete(row, k)
					break
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(kept); n > 0 {
				restore(kept[n-1], saved[n-1])
			}
			if res.Count != int64(len(want)) || len(want) < 100 {
				t.Fatalf("Count = %d, oracle %d (want at least 100 rows)", res.Count, len(want))
			}
			repeats := 0
			for i := 1; i < len(kept); i++ {
				for _, attr := range []string{"a", "d"} {
					if kept[i][attr] == kept[i-1][attr] {
						repeats++
					}
				}
			}
			if repeats == 0 {
				t.Fatal("no consecutive rows repeat a string value")
			}
			final := make([]string, len(kept))
			for i, row := range kept {
				final[i] = canonRow(q, row)
			}
			sort.Strings(delivered)
			sort.Strings(final)
			if !slices.Equal(delivered, want) {
				t.Fatalf("delivered rows diverge from the oracle:\n got %v\nwant %v", delivered, want)
			}
			if !slices.Equal(final, want) {
				t.Fatalf("kept rows changed after delivery:\n got %v\nwant %v", final, want)
			}
		})
	}
}

// TestRecycledSlabsKeepRows runs two instances of one query back to back,
// then concurrently. A query hands its disk's file slabs back to a shared
// pool when it returns, so a later query overwrites the slabs an earlier one
// carved its files from: every run must still emit exactly the oracle's rows,
// and rows kept from the first run must not change.
func TestRecycledSlabsKeepRows(t *testing.T) {
	qb := NewQuery()
	for i, attrs := range [][]string{{"a", "b"}, {"b", "c"}, {"b", "d"}, {"d", "e"}} {
		qb.Relation(fmt.Sprintf("R%d", i+1), attrs...)
	}
	q, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	instance := func(seed int64) *Instance {
		rng := rand.New(rand.NewSource(seed))
		inst := q.NewInstance()
		for _, name := range q.Relations() {
			attrs := q.AttributesOf(name)
			for r := 0; r < 1500; r++ {
				row := make([]Value, len(attrs))
				for j, a := range attrs {
					if a == "a" || a == "e" {
						row[j] = words[rng.Intn(len(words))]
					} else {
						row[j] = rng.Intn(1500)
					}
				}
				inst.MustAdd(name, row...)
			}
		}
		return inst
	}
	insts := []*Instance{instance(1), instance(2)}
	wants := [][]string{oracleRows(t, q, insts[0]), oracleRows(t, q, insts[1])}
	for i, want := range wants {
		if len(want) < 100 {
			t.Fatalf("instance %d joins to %d rows, want at least 100", i, len(want))
		}
	}
	run := func(i int) ([]Row, error) {
		var rows []Row
		_, err := Run(q, insts[i], Options{Memory: 64, Block: 8}, func(r Row) { rows = append(rows, r) })
		return rows, err
	}
	check := func(i int, rows []Row) error {
		got := make([]string, len(rows))
		for j, r := range rows {
			got[j] = canonRow(q, r)
		}
		sort.Strings(got)
		if !slices.Equal(got, wants[i]) {
			return fmt.Errorf("instance %d: %d rows diverge from the oracle's %d", i, len(got), len(wants[i]))
		}
		return nil
	}

	first, err := run(0)
	if err == nil {
		err = check(0, first)
	}
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(1)
	if err == nil {
		err = check(1, second)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := check(0, first); err != nil {
		t.Fatalf("first run's rows after the second run: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				rows, err := run(i)
				if err == nil {
					err = check(i, rows)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := check(0, first); err != nil {
		t.Fatalf("first run's rows after the concurrent runs: %v", err)
	}
}

// TestCrossStrategyGreedyDifferential grades the greedy planner against the
// exhaustive oracle on a randomized corpus, across both storage backends:
// the emitted row multiset and Count must match
// exactly, greedy must report a single branch with zero chooser clamps, and
// on every workload where the oracle actually explored alternatives its
// planning overhead (PlanningStats beyond Stats) must be strictly above
// greedy's bounded probes.
func TestCrossStrategyGreedyDifferential(t *testing.T) {
	const trials = 12
	for _, backend := range []string{"sim", "file"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				q := randomTreeQuery(rng)
				inst := q.NewInstance()
				fillRandom(rng, q, inst, trial%4 == 0)
				var gotG []string
				gr, err := Run(q, inst, Options{Memory: 64, Block: 8, Strategy: StrategyGreedy,
					Backend: backend}, func(row Row) {
					gotG = append(gotG, canonRow(q, row))
				})
				if err != nil {
					t.Fatalf("trial %d greedy: %v", trial, err)
				}
				if gr.Branches != 1 {
					t.Fatalf("trial %d: greedy explored %d branches", trial, gr.Branches)
				}
				if gr.ClampedChoices != 0 {
					t.Fatalf("trial %d: greedy clamped %d choices", trial, gr.ClampedChoices)
				}
				sort.Strings(gotG)
				var gotE []string
				ex, err := Run(q, inst, Options{Memory: 64, Block: 8, Strategy: StrategyExhaustive,
					Backend: backend}, func(row Row) {
					gotE = append(gotE, canonRow(q, row))
				})
				if err != nil {
					t.Fatalf("trial %d exhaustive: %v", trial, err)
				}
				if gr.Count != ex.Count {
					t.Fatalf("trial %d: greedy Count %d, exhaustive %d", trial, gr.Count, ex.Count)
				}
				sort.Strings(gotE)
				if len(gotG) != len(gotE) {
					t.Fatalf("trial %d: greedy %d rows, exhaustive %d", trial, len(gotG), len(gotE))
				}
				for i := range gotE {
					if gotG[i] != gotE[i] {
						t.Fatalf("trial %d: row %d = %q, exhaustive %q", trial, i, gotG[i], gotE[i])
					}
				}
				if ex.Branches > 1 {
					planG := gr.PlanningStats.IOs - gr.Stats.IOs
					planE := ex.PlanningStats.IOs - ex.Stats.IOs
					if planG >= planE {
						t.Fatalf("trial %d: greedy planning %d I/Os not below exhaustive %d (%d branches)",
							trial, planG, planE, ex.Branches)
					}
				}
			}
		})
	}
}

// Counting-only runs (emit == nil) must report the same Count as emitting
// runs for every strategy, and an otherwise identical Result: Stats,
// PlanningStats, Branches, Transfers, plan and memo telemetry. Queries are
// counted instead of enumerated, which must change nothing but the host
// work. Besides random trees, the Section 6.3 lower-bound families (the
// instances of E7-E9, shrunk) reach each plan of the line dispatcher.
func TestDifferentialCountOnly(t *testing.T) {
	check := func(name string, q *Query, inst *Instance, opts Options) {
		t.Helper()
		want := oracleRows(t, q, inst)
		res, err := Count(q, inst, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != int64(len(want)) {
			t.Fatalf("%s: Count = %d, oracle = %d", name, res.Count, len(want))
		}
		var rows int64
		ref, err := Run(q, inst, opts, func(Row) { rows++ })
		if err != nil {
			t.Fatalf("%s: emitting run: %v", name, err)
		}
		if ref.Count != rows || rows != res.Count {
			t.Fatalf("%s: emitting run delivered %d rows, Count %d; count-only %d",
				name, rows, ref.Count, res.Count)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%s: count-only run diverges from emitting run:\n%+v\n%+v", name, res, ref)
		}
	}
	for _, s := range []Strategy{StrategyExhaustive, StrategyFirst, StrategySmallest, StrategyGreedy} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			q := randomTreeQuery(rng)
			inst := q.NewInstance()
			fillRandom(rng, q, inst, false)
			check(fmt.Sprintf("%v trial %d", s, trial), q, inst, Options{Memory: 64, Block: 8, Strategy: s})
		}
	}
	for _, c := range []struct {
		zs      []int
		mapEdge int
		plan    string
	}{
		{[]int{20, 2, 3, 2}, -1, "line-3 (Algorithm 1)"}, // v1 values heavy in R1
		{[]int{2, 4, 6, 6, 4, 2}, 2, "line-5 unbalanced (Algorithm 4)"},
		{[]int{2, 4, 6, 6, 4, 2, 2}, 2, "chunked composite"},
		{[]int{2, 2, 4, 6, 6, 4, 2}, 3, "chunked composite"}, // the mirror: R1 outer
		{[]int{2, 4, 6, 6, 4, 2, 2, 2}, 2, "line-7 unbalanced (Algorithm 5)"},
	} {
		q, inst := lineCrossQuery(t, c.zs, c.mapEdge)
		for _, s := range []Strategy{StrategyExhaustive, StrategyGreedy} {
			opts := Options{Memory: 16, Block: 4, Strategy: s}
			name := fmt.Sprintf("%v line %v", s, c.zs)
			check(name, q, inst, opts)
			if res, err := Count(q, inst, opts); err != nil || !strings.HasPrefix(res.Plan, c.plan) {
				t.Fatalf("%s: plan %q (err %v), want %s", name, res.Plan, err, c.plan)
			}
		}
	}
}

// lineCrossQuery loads workload.LineCross(zs, mapEdge) into a public query and
// instance, relation Ri over attributes ai, ai+1.
func lineCrossQuery(t *testing.T, zs []int, mapEdge int) (*Query, *Instance) {
	t.Helper()
	g, in, _, err := workload.LineCross(extmem.NewDisk(extmem.Config{M: 64, B: 8}), zs, mapEdge)
	if err != nil {
		t.Fatal(err)
	}
	qb := NewQuery()
	for _, e := range g.Edges() {
		qb.Relation(fmt.Sprintf("R%d", e.ID), fmt.Sprintf("a%d", e.Attrs[0]), fmt.Sprintf("a%d", e.Attrs[1]))
	}
	q, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := q.NewInstance()
	for _, e := range g.Edges() {
		r := in[e.ID]
		c0, c1 := r.Col(e.Attrs[0]), r.Col(e.Attrs[1])
		rd := r.Reader()
		for tp := rd.Next(); tp != nil; tp = rd.Next() {
			inst.MustAdd(fmt.Sprintf("R%d", e.ID), tp[c0], tp[c1])
		}
	}
	return q, inst
}
