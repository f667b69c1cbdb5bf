package core

import (
	"errors"
	"math/rand"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

func collectFn(t *testing.T, fn func(Emit) error) []string {
	t.Helper()
	var got []string
	if err := fn(func(a tuple.Assignment) { got = append(got, a.String()) }); err != nil {
		t.Fatal(err)
	}
	sortStrings(got)
	return got
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestPairJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		m := []int{6, 8, 12}[rng.Intn(3)]
		d := extmem.NewDisk(extmem.Config{M: m, B: 2})
		g, in := lineInstance(d, rng, 2, 5+rng.Intn(40), 4)
		ra, err := in[0].SortBy(1)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := in[1].SortBy(1)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		err = PairJoin(ra, rb, 1, func(ta, tb tuple.Tuple) error {
			if ta[1] != tb[0] {
				t.Fatalf("pair join produced non-matching pair %v %v", ta, tb)
			}
			count++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(t, g, in)
		if count != len(want) {
			t.Fatalf("trial %d: pairs = %d, want %d", trial, count, len(want))
		}
		if hw := d.Stats().MemHiWater; hw > MemFactor(g)*m {
			t.Fatalf("memory hi-water %d", hw)
		}
	}
}

// TestPairJoinHoldsWhatItBuffers pins PairJoin's memory: it grabs the
// tuples it buffered of a value's group, at most M per side, not M per side
// whatever the group holds, and a refused grab leaves nothing held.
func TestPairJoinHoldsWhatItBuffers(t *testing.T) {
	const m = 8
	// group returns k tuples of join value 5 on attribute 1, A-side
	// (v0, v1) or B-side (v1, v2), sorted by it.
	group := func(d *extmem.Disk, bSide bool, k int) *relation.Relation {
		rows := make([]tuple.Tuple, k)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(i), 5}
			if bSide {
				rows[i] = tuple.Tuple{5, int64(i)}
			}
		}
		if bSide {
			return relation.FromTuples(d, tuple.Schema{1, 2}, rows).WithSortOrder([]int{0, 1})
		}
		return relation.FromTuples(d, tuple.Schema{0, 1}, rows).WithSortOrder([]int{1, 0})
	}
	for _, c := range []struct {
		name       string
		nA, nB, hw int
	}{
		{"light A streams B", 3, 20, 3},
		{"heavy A buffers light B", 10, 5, m + 5},
		{"both heavy", 10, 9, 2 * m},
	} {
		d := disk(m, 2)
		rA, rB := group(d, false, c.nA), group(d, true, c.nB)
		d.ResetStats()
		pairs := 0
		if err := PairJoin(rA, rB, 1, func(_, _ tuple.Tuple) error { pairs++; return nil }); err != nil {
			t.Fatal(err)
		}
		if pairs != c.nA*c.nB || d.Stats().MemHiWater != c.hw || d.MemInUse() != 0 {
			t.Fatalf("%s: %d pairs, hi-water %d, %d still held; want %d pairs and hi-water %d",
				c.name, pairs, d.Stats().MemHiWater, d.MemInUse(), c.nA*c.nB, c.hw)
		}

		// With all but 2 tuples of the allowance held, the grab is refused.
		held := extmem.DefaultMemFactor*m - 2
		if err := d.Grab(held); err != nil {
			t.Fatal(err)
		}
		err := PairJoin(rA, rB, 1, func(_, _ tuple.Tuple) error { return nil })
		if !errors.Is(err, extmem.ErrMemoryExceeded) || d.MemInUse() != held {
			t.Fatalf("%s: over the allowance got %v with %d held, want ErrMemoryExceeded with %d", c.name, err, d.MemInUse(), held)
		}
		d.Release(held)
	}
}

// TestLongLineFitsTheDerivedAllowance runs a 70-relation line of 4 tuples
// per relation through RunLine, which routes it to Algorithm 2. Each of its
// 69 peel levels keeps its chunk while it recurses. A chunk holds only the
// tuples it loads, so at M=512 the run fits even the fixed 16·M allowance
// (at 2M per level it overran it after 8 levels); at M=8, 69 chunks of 4
// tuples need the allowance that grows with the query.
func TestLongLineFitsTheDerivedAllowance(t *testing.T) {
	const n = 70
	g := hypergraph.Line(n)
	for _, c := range []struct{ m, b, factor int }{{512, 8, extmem.DefaultMemFactor}, {8, 2, MemFactor(g)}} {
		m := c.m
		d := extmem.NewDisk(extmem.Config{M: m, B: c.b, MemFactor: c.factor})
		in := relation.Instance{}
		for i := range n {
			in[i] = relation.FromTuples(d, tuple.Schema{i, i + 1}, []tuple.Tuple{{0, 0}, {0, 1}, {1, 1}, {2, 2}})
		}
		res, err := RunLine(g, in, nil, Options{Strategy: StrategyFirst})
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		// 0…0 then 1…1, switching at any of n+2 places, and 2…2.
		if res.Emitted != n+3 {
			t.Fatalf("M=%d: %d results, want %d", m, res.Emitted, n+3)
		}
		if hw := d.Stats().MemHiWater; hw > c.factor*m {
			t.Fatalf("M=%d: hi-water %d over the allowance %d", m, hw, c.factor*m)
		}
	}
}

func TestPairJoinRequiresSorted(t *testing.T) {
	d := disk(4, 1)
	r := relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}})
	if err := PairJoin(r, r, 1, func(_, _ tuple.Tuple) error { return nil }); err == nil {
		t.Fatal("unsorted input accepted")
	}
}

func TestBlockedNLJCounts(t *testing.T) {
	d := disk(4, 1)
	a := relation.FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}, {3}, {4}, {5}})
	b := relation.FromTuples(d, tuple.Schema{1}, []tuple.Tuple{{7}, {8}, {9}})
	n := 0
	if err := BlockedNLJ(a, b, func(rows []tuple.Tuple, _ tuple.Tuple) error { n += len(rows); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("pairs = %d, want 15", n)
	}
}

func TestLine3MatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		m := []int{6, 8}[rng.Intn(2)]
		d := extmem.NewDisk(extmem.Config{M: m, B: 2})
		g, in := lineInstance(d, rng, 3, 10+rng.Intn(60), 5)
		want := oracle(t, g, in)
		got := collectFn(t, func(e Emit) error { return Line3(g, in, e) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLine3HeavyPath(t *testing.T) {
	// Force the heavy branch: M=4, a v1 value with 8 R1 tuples.
	d := disk(4, 1)
	g := hypergraph.Line(3)
	var r1, r2, r3 []tuple.Tuple
	for i := 0; i < 8; i++ {
		r1 = append(r1, tuple.Tuple{int64(i), 50})
	}
	r1 = append(r1, tuple.Tuple{100, 60}) // light value
	for c := 0; c < 3; c++ {
		r2 = append(r2, tuple.Tuple{50, int64(c)})
		r3 = append(r3, tuple.Tuple{int64(c), int64(900 + c)})
	}
	r2 = append(r2, tuple.Tuple{60, 2})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, r1),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, r2),
		2: relation.FromTuples(d, tuple.Schema{2, 3}, r3),
	}
	want := oracle(t, g, in)
	got := collectFn(t, func(e Emit) error { return Line3(g, in, e) })
	if len(got) != len(want) {
		t.Fatalf("results = %d, want %d", len(got), len(want))
	}
	// 8 heavy * 3 + 1 light * 1 = 25
	if len(got) != 25 {
		t.Fatalf("results = %d, want 25", len(got))
	}
}

func TestLine3RejectsNonLine(t *testing.T) {
	d := disk(4, 1)
	// A 3-petal star has a ternary core: not a line.
	g := hypergraph.StarQuery(3)
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1, 2}, nil),
		1: relation.FromTuples(d, tuple.Schema{0, 3}, nil),
		2: relation.FromTuples(d, tuple.Schema{1, 4}, nil),
		3: relation.FromTuples(d, tuple.Schema{2, 5}, nil),
	}
	if err := Line3(g, in, func(tuple.Assignment) {}); err == nil {
		t.Fatal("non-line accepted")
	}
	// Wrong length is also rejected.
	g2, in2 := lineInstance(d, rand.New(rand.NewSource(1)), 4, 4, 3)
	if err := Line3(g2, in2, func(tuple.Assignment) {}); err == nil {
		t.Fatal("L4 accepted by Line3")
	}
}

func TestLine5UnbalancedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		d := disk(4, 1)
		g, in := lineInstance(d, rng, 5, 8+rng.Intn(40), 4)
		want := oracle(t, g, in)
		got := collectFn(t, func(e Emit) error { return Line5Unbalanced(g, in, e) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestLine7UnbalancedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 8; trial++ {
		d := disk(4, 1)
		g, in := lineInstance(d, rng, 7, 8+rng.Intn(25), 3)
		want := oracle(t, g, in)
		got := collectFn(t, func(e Emit) error {
			return Line7Unbalanced(g, in, e, Options{})
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestPlanLineRouting(t *testing.T) {
	cases := []struct {
		sizes []float64
		want  PlanKind
	}{
		{[]float64{10, 10}, PlanAcyclic},
		{[]float64{10, 10, 10}, PlanLine3},
		{[]float64{10, 5, 50, 10}, PlanAcyclic},
		{[]float64{10, 10, 10, 10, 10}, PlanAcyclic},        // balanced L5
		{[]float64{2, 100, 2, 100, 2}, PlanLine5Unbalanced}, // N1N3N5 < N2N4
		{[]float64{8, 8, 8, 8, 8, 8, 8}, PlanAcyclic},       // balanced L7
		{[]float64{2, 100, 2, 100, 2, 100, 2}, PlanLine7Unbalanced},
	}
	for _, c := range cases {
		p, err := PlanLine(c.sizes)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != c.want {
			t.Errorf("PlanLine(%v) = %v, want %v (%s)", c.sizes, p.Kind, c.want, p.Reason)
		}
	}
}

func TestRunLineAllShapesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		d := disk(4, 1)
		g, in := lineInstance(d, rng, n, 8+rng.Intn(20), 3)
		want := oracle(t, g, in)
		var got []string
		res, err := RunLine(g, in, func(a tuple.Assignment) { got = append(got, a.String()) }, Options{})
		if err != nil {
			t.Fatalf("L%d: %v", n, err)
		}
		sortStrings(got)
		if len(got) != len(want) || res.Emitted != int64(len(want)) {
			t.Fatalf("L%d (plan %v): %d results (Emitted %d), want %d", n, res.Line.Kind, len(got), res.Emitted, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("L%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestChunkedOuterJoin(t *testing.T) {
	d := disk(4, 1)
	g, in := lineInstance(d, rand.New(rand.NewSource(8)), 2, 20, 4)
	want := oracle(t, g, in)
	// Treat R2 as outer, R1 alone as inner.
	var got []string
	x := newExecutor(g, func(a tuple.Assignment) { got = append(got, a.String()) }, Options{}, nil, nil)
	inner := func(reads uint64, done func(int64)) error {
		rd := in[0].Reader()
		for tp := rd.Next(); tp != nil; tp = rd.Next() {
			x.extend([]tuple.Tuple{tp}, in[0].Schema(), attrMask(in[0].Schema()...), reads, 1, done)
		}
		return nil
	}
	reads, done := x.start()
	if err := x.chunked(in[1], 1, inner)(reads, done); err != nil {
		t.Fatal(err)
	}
	sortStrings(got)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %s vs %s", i, got[i], want[i])
		}
	}
	// Counting binds only the shared value the match reads.
	x = newExecutor(g, nil, Options{}, nil, nil)
	reads, done = x.start()
	if err := x.chunked(in[1], 1, inner)(reads, done); err != nil || x.emitted != int64(len(want)) {
		t.Fatalf("count-only: %d results (err %v), want %d", x.emitted, err, len(want))
	}
}
