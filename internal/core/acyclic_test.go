package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"acyclicjoin/internal/count"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// collect runs Algorithm 2 and gathers emitted assignments as strings.
func collect(t *testing.T, g *hypergraph.Graph, in relation.Instance, opts Options) ([]string, *Result) {
	t.Helper()
	var got []string
	res, err := Run(g, in, func(a tuple.Assignment) {
		got = append(got, a.String())
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got, res
}

// oracle gathers the reference results.
func oracle(t *testing.T, g *hypergraph.Graph, in relation.Instance) []string {
	t.Helper()
	var want []string
	if err := count.Enumerate(g, in, func(a tuple.Assignment) {
		want = append(want, a.String())
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

func eqStrings(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), head(got), head(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

func head(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

func disk(m, b int) *extmem.Disk { return extmem.NewDisk(extmem.Config{M: m, B: b}) }

func lineInstance(d *extmem.Disk, rng *rand.Rand, n, rows, domain int) (*hypergraph.Graph, relation.Instance) {
	g := hypergraph.Line(n)
	in := relation.Instance{}
	for i := 0; i < n; i++ {
		seen := map[[2]int64]bool{}
		var rs []tuple.Tuple
		for k := 0; k < rows; k++ {
			t := [2]int64{int64(rng.Intn(domain)), int64(rng.Intn(domain))}
			if !seen[t] {
				seen[t] = true
				rs = append(rs, tuple.Tuple{t[0], t[1]})
			}
		}
		in[i] = relation.FromTuples(d, tuple.Schema{i, i + 1}, rs)
	}
	return g, in
}

func TestSingleRelation(t *testing.T) {
	d := disk(8, 2)
	g := hypergraph.Line(1)
	in := relation.Instance{0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}, {3, 4}})}
	got, res := collect(t, g, in, Options{})
	if len(got) != 2 || res.Emitted != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestTwoRelationJoin(t *testing.T) {
	d := disk(8, 2)
	g := hypergraph.Line(2)
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 5}, {2, 6}, {3, 5}}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, []tuple.Tuple{{5, 9}, {5, 8}, {7, 1}}),
	}
	got, _ := collect(t, g, in, Options{})
	want := oracle(t, g, in)
	eqStrings(t, got, want, "L2")
	if len(got) != 4 {
		t.Fatalf("results = %d, want 4", len(got))
	}
}

func TestLine3AllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	d := disk(8, 2)
	g, in := lineInstance(d, rng, 3, 30, 5)
	want := oracle(t, g, in)
	for _, s := range []Strategy{StrategyFirst, StrategySmallest, StrategyExhaustive} {
		got, res := collect(t, g, in, Options{Strategy: s})
		eqStrings(t, got, want, s.String())
		if s == StrategyExhaustive && res.Branches < 2 {
			t.Errorf("exhaustive explored %d branches", res.Branches)
		}
	}
}

func TestStarJoin(t *testing.T) {
	d := disk(8, 2)
	g := hypergraph.StarQuery(3) // core R0{0,1,2}, petals R1{0,3} R2{1,4} R3{2,5}
	rng := rand.New(rand.NewSource(7))
	in := relation.Instance{}
	var core []tuple.Tuple
	for k := 0; k < 10; k++ {
		core = append(core, tuple.Tuple{int64(rng.Intn(3)), int64(rng.Intn(3)), int64(rng.Intn(3))})
	}
	in[0] = relation.FromTuples(d, tuple.Schema{0, 1, 2}, dedup(core))
	for p := 0; p < 3; p++ {
		var rows []tuple.Tuple
		for k := 0; k < 8; k++ {
			rows = append(rows, tuple.Tuple{int64(rng.Intn(3)), int64(rng.Intn(6))})
		}
		in[p+1] = relation.FromTuples(d, tuple.Schema{p, 3 + p}, dedup(rows))
	}
	want := oracle(t, g, in)
	got, _ := collect(t, g, in, Options{Strategy: StrategyExhaustive})
	eqStrings(t, got, want, "star")
}

func dedup(rows []tuple.Tuple) []tuple.Tuple {
	seen := map[string]bool{}
	var out []tuple.Tuple
	for _, r := range rows {
		k := fmt.Sprint(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func TestHeavyValues(t *testing.T) {
	// Force heavy values: M=4, one join value with 10 tuples on each side.
	d := disk(4, 1)
	g := hypergraph.Line(2)
	var r1, r2 []tuple.Tuple
	for i := 0; i < 10; i++ {
		r1 = append(r1, tuple.Tuple{int64(i), 77})
		r2 = append(r2, tuple.Tuple{77, int64(100 + i)})
	}
	r1 = append(r1, tuple.Tuple{55, 3}) // light value
	r2 = append(r2, tuple.Tuple{3, 999})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, r1),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, r2),
	}
	want := oracle(t, g, in)
	got, _ := collect(t, g, in, Options{})
	eqStrings(t, got, want, "heavy")
	if len(got) != 101 {
		t.Fatalf("results = %d, want 101", len(got))
	}
}

func TestDisconnectedQuery(t *testing.T) {
	d := disk(4, 1)
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "A", Attrs: []int{0, 1}},
		{ID: 1, Name: "B", Attrs: []int{5, 6}},
	})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}, {3, 4}}),
		1: relation.FromTuples(d, tuple.Schema{5, 6}, []tuple.Tuple{{7, 8}, {9, 10}, {11, 12}}),
	}
	got, _ := collect(t, g, in, Options{})
	want := oracle(t, g, in)
	eqStrings(t, got, want, "disconnected")
	if len(got) != 6 {
		t.Fatalf("cross product = %d, want 6", len(got))
	}
}

func TestBudFiltering(t *testing.T) {
	d := disk(4, 1)
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "Bud", Attrs: []int{0}},
		{ID: 1, Name: "L1", Attrs: []int{0, 1}},
		{ID: 2, Name: "L2", Attrs: []int{0, 2}},
	})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}}),
		1: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 10}, {2, 20}, {3, 30}}),
		2: relation.FromTuples(d, tuple.Schema{0, 2}, []tuple.Tuple{{1, 100}, {3, 300}}),
	}
	want := oracle(t, g, in) // only value 1 survives all three
	got, _ := collect(t, g, in, Options{})
	eqStrings(t, got, want, "bud")
	if len(got) != 1 {
		t.Fatalf("results = %d, want 1", len(got))
	}
}

func TestEmptyRelation(t *testing.T) {
	d := disk(4, 1)
	g := hypergraph.Line(3)
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, nil),
		2: relation.FromTuples(d, tuple.Schema{2, 3}, []tuple.Tuple{{4, 5}}),
	}
	got, _ := collect(t, g, in, Options{})
	if len(got) != 0 {
		t.Fatalf("results = %d, want 0", len(got))
	}
}

func TestRejectsCyclic(t *testing.T) {
	d := disk(4, 1)
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Attrs: []int{0, 1}}, {ID: 1, Attrs: []int{1, 2}}, {ID: 2, Attrs: []int{0, 2}},
	})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, nil),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, nil),
		2: relation.FromTuples(d, tuple.Schema{0, 2}, nil),
	}
	if _, err := Run(g, in, func(tuple.Assignment) {}, Options{}); err == nil {
		t.Fatal("cyclic query accepted")
	}
}

// The big correctness property: on random acyclic queries and instances,
// Algorithm 2 (all strategies) matches the enumeration oracle, and memory
// stays within the c*M allowance.
func TestRandomAcyclicCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 60; trial++ {
		m := []int{6, 8, 16}[rng.Intn(3)]
		d := extmem.NewDisk(extmem.Config{M: m, B: 2})
		g := randomAcyclicQuery(rng, 2+rng.Intn(4))
		in := randomInstance(d, rng, g, 4+rng.Intn(40), 4)
		want := oracle(t, g, in)
		strategies := []Strategy{StrategyFirst, StrategySmallest}
		if trial%3 == 0 {
			strategies = append(strategies, StrategyExhaustive)
		}
		for _, s := range strategies {
			got, _ := collect(t, g, in, Options{Strategy: s})
			if len(got) != len(want) {
				t.Fatalf("trial %d strategy %v on %v: %d results, want %d",
					trial, s, g, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d strategy %v on %v: mismatch at %d: %s vs %s",
						trial, s, g, i, got[i], want[i])
				}
			}
		}
		if hw := d.Stats().MemHiWater; hw > MemFactor(g)*m {
			t.Fatalf("trial %d: memory hi-water %d > %d*M", trial, hw, MemFactor(g))
		}
	}
}

// randomAcyclicQuery builds a random Berge-acyclic connected query.
func randomAcyclicQuery(rng *rand.Rand, nEdges int) *hypergraph.Graph {
	attr := 0
	edges := make([]*hypergraph.Edge, nEdges)
	for i := 0; i < nEdges; i++ {
		edges[i] = &hypergraph.Edge{ID: i, Name: fmt.Sprintf("R%d", i)}
	}
	for i := 1; i < nEdges; i++ {
		p := rng.Intn(i)
		edges[i].Attrs = append(edges[i].Attrs, attr)
		edges[p].Attrs = append(edges[p].Attrs, attr)
		attr++
	}
	for i := 0; i < nEdges; i++ {
		for k := rng.Intn(2); k > 0; k-- {
			edges[i].Attrs = append(edges[i].Attrs, attr)
			attr++
		}
		if len(edges[i].Attrs) == 0 {
			edges[i].Attrs = append(edges[i].Attrs, attr)
			attr++
		}
	}
	return hypergraph.MustNew(edges)
}

func randomInstance(d *extmem.Disk, rng *rand.Rand, g *hypergraph.Graph, rows, domain int) relation.Instance {
	in := relation.Instance{}
	for _, e := range g.Edges() {
		schema := make(tuple.Schema, len(e.Attrs))
		copy(schema, e.Attrs)
		seen := map[string]bool{}
		var rs []tuple.Tuple
		for k := 0; k < rows; k++ {
			t := make(tuple.Tuple, len(schema))
			for j := range t {
				t[j] = int64(rng.Intn(domain))
			}
			key := fmt.Sprint(t)
			if !seen[key] {
				seen[key] = true
				rs = append(rs, t)
			}
		}
		in[e.ID] = relation.FromTuples(d, schema, rs)
	}
	return in
}

// Exhaustive strategy never does worse than StrategyFirst on execution I/O.
func TestExhaustiveAtLeastAsGoodAsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 10; trial++ {
		d := disk(8, 2)
		g, in := lineInstance(d, rng, 4, 40, 6)
		red, err := reducer.FullReduce(g, in)
		if err != nil {
			t.Fatal(err)
		}
		_, resFirst := collect(t, g, red, Options{Strategy: StrategyFirst, AssumeReduced: true})
		_, resBest := collect(t, g, red, Options{Strategy: StrategyExhaustive, AssumeReduced: true})
		if resBest.ExecStats.IOs() > resFirst.ExecStats.IOs() {
			t.Fatalf("trial %d: exhaustive exec %d > first %d",
				trial, resBest.ExecStats.IOs(), resFirst.ExecStats.IOs())
		}
	}
}

// Regression: AssumeReduced must NOT skip bud filtering inside the
// recursion. Heavy-value restriction turns neighbour {v1,v2} into a bud
// {v2} whose value set no longer covers the other v2-edges, even though the
// ORIGINAL instance was fully reduced; dropping that bud unfiltered emitted
// phantom results (caught by the randomized verification sweep).
func TestBudFilterInsideRecursionWithAssumeReduced(t *testing.T) {
	d := disk(4, 1) // M=4: six tuples on one v1 value are heavy
	g := hypergraph.Line(3)
	var r1 []tuple.Tuple
	for i := int64(0); i < 6; i++ {
		r1 = append(r1, tuple.Tuple{i, 0}) // heavy v1=0
	}
	r1 = append(r1, tuple.Tuple{9, 1}) // light v1=1
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, r1),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, []tuple.Tuple{{0, 0}, {1, 1}}),
		2: relation.FromTuples(d, tuple.Schema{2, 3}, []tuple.Tuple{{0, 10}, {1, 11}}),
	}
	// The instance is fully reduced: every tuple extends to a result.
	want := oracle(t, g, in) // 6 heavy paths + 1 light path = 7
	if len(want) != 7 {
		t.Fatalf("oracle = %d results, want 7", len(want))
	}
	got, _ := collect(t, g, in, Options{Strategy: StrategyFirst, AssumeReduced: true})
	eqStrings(t, got, want, "assume-reduced bud recursion")
}

// Appendix A.2 edge case: two or more petals sharing the SAME join
// attribute with the core ("we ask Algorithm 2 to peel off the extra petals
// first"). The executor must handle Γ with multiple leaves on one attribute.
func TestMultiplePetalsOneAttribute(t *testing.T) {
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "Core", Attrs: []int{0, 1}},
		{ID: 1, Name: "P1a", Attrs: []int{0, 2}},
		{ID: 2, Name: "P1b", Attrs: []int{0, 3}}, // same core attr as P1a
		{ID: 3, Name: "P2", Attrs: []int{1, 4}},
	})
	rng := rand.New(rand.NewSource(44))
	d := disk(4, 1)
	in := randomInstance(d, rng, g, 25, 3)
	want := oracle(t, g, in)
	for _, s := range []Strategy{StrategyFirst, StrategyExhaustive} {
		got, _ := collect(t, g, in, Options{Strategy: s})
		eqStrings(t, got, want, "multi-petal "+s.String())
	}
	// GenS must also enumerate this shape without error and include
	// branches where the shared-attribute petals appear.
	if stars := g.Stars(); len(stars) == 0 {
		t.Fatal("no stars detected in multi-petal query")
	}
}

// A deep line (L9) exercises the n>=9 fallback path of the planner.
func TestDeepLineFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	d := disk(4, 1)
	g, in := lineInstance(d, rng, 9, 10, 3)
	want := oracle(t, g, in)
	var got []string
	plan, err := RunLine(g, in, func(a tuple.Assignment) { got = append(got, a.String()) },
		Options{Strategy: StrategySmallest})
	if err != nil {
		t.Fatal(err)
	}
	sortStrings(got)
	eqStrings(t, got, want, "L9")
	_ = plan
}

// A wide star (6 petals) stresses the star machinery.
func TestWideStar(t *testing.T) {
	g := hypergraph.StarQuery(6)
	rng := rand.New(rand.NewSource(46))
	d := disk(8, 2)
	in := randomInstance(d, rng, g, 12, 2)
	want := oracle(t, g, in)
	got, _ := collect(t, g, in, Options{Strategy: StrategyFirst})
	eqStrings(t, got, want, "star6")
}

func TestLollipopAndDumbbellCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, g := range []*hypergraph.Graph{hypergraph.Lollipop(2), hypergraph.Dumbbell(2, 4)} {
		d := disk(8, 2)
		in := randomInstance(d, rng, g, 25, 3)
		want := oracle(t, g, in)
		got, _ := collect(t, g, in, Options{Strategy: StrategyExhaustive})
		eqStrings(t, got, want, g.String())
	}
}

// A query whose attribute IDs do not fit a 64-bit mask counts by
// enumerating every result; the count and the charges must still match an
// emitting run and the oracle.
func TestCountOnlyWideQuery(t *testing.T) {
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "R1", Attrs: []hypergraph.Attr{70, 71}},
		{ID: 1, Name: "R2", Attrs: []hypergraph.Attr{71, 72}},
		{ID: 2, Name: "R3", Attrs: []hypergraph.Attr{71, 73}},
		{ID: 3, Name: "R4", Attrs: []hypergraph.Attr{73, 74}},
	})
	for _, opts := range []Options{{}, {Strategy: StrategyFirst, DisableHeavySplit: true}} {
		d := disk(6, 2) // small enough for heavy values
		in := randCoreInstance(d, rand.New(rand.NewSource(64)), g, 30, 3)
		got, ref := collect(t, g, in, opts)
		eqStrings(t, got, oracle(t, g, in), "emitting run")
		cnt, err := Run(g, in, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Emitted != int64(len(got)) || cnt.ExecStats != ref.ExecStats {
			t.Fatalf("%+v: count-only run: %d results, exec %+v; emitting run: %d, exec %+v",
				opts, cnt.Emitted, cnt.ExecStats, len(got), ref.ExecStats)
		}
	}
}
