package gens

import (
	"math"
	"testing"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
)

func hasSubset(f Family, ids ...int) bool {
	s := Subset(ids)
	k := s.Key()
	for _, x := range f {
		if x.Key() == k {
			return true
		}
	}
	return false
}

func TestBranchesL3MatchesPaper(t *testing.T) {
	// Section 4.2: GenS on L3 generates (for the one-petal star branches)
	// S = all subsets of {e1,e2,e3} except the full set.
	g := hypergraph.Line(3)
	fams := Branches(g)
	if len(fams) == 0 {
		t.Fatal("no branches")
	}
	found := false
	for _, f := range fams {
		if len(f) == 7 && !hasSubset(f, 0, 1, 2) &&
			hasSubset(f, 0, 2) && hasSubset(f, 1, 2) && hasSubset(f, 0, 1) &&
			hasSubset(f, 0) && hasSubset(f, 1) && hasSubset(f, 2) && hasSubset(f) {
			found = true
		}
	}
	if !found {
		for _, f := range fams {
			t.Logf("family: %v", f)
		}
		t.Fatal("paper's L3 family (all subsets except full) not generated")
	}
}

func TestBranchesSingleEdge(t *testing.T) {
	g := hypergraph.Line(1)
	fams := Branches(g)
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	f := fams[0]
	if len(f) != 2 || !hasSubset(f) || !hasSubset(f, 0) {
		t.Fatalf("family = %v", f)
	}
}

func TestBranchesEmpty(t *testing.T) {
	g := hypergraph.MustNew(nil)
	fams := Branches(g)
	if len(fams) != 1 || len(fams[0]) != 1 || len(fams[0][0]) != 0 {
		t.Fatalf("fams = %v", fams)
	}
}

func TestBudDropped(t *testing.T) {
	// Bud never appears in any generated subset.
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "B", Attrs: []int{0}},
		{ID: 1, Name: "L1", Attrs: []int{0, 1}},
		{ID: 2, Name: "L2", Attrs: []int{0, 2}},
	})
	for _, f := range Branches(g) {
		for _, s := range f {
			for _, id := range s {
				if id == 0 {
					t.Fatalf("bud appears in %v", s)
				}
			}
		}
	}
}

func TestStarFamilyExcludesCoreWithAllPetals(t *testing.T) {
	// Standalone star, 3 petals, core id 0: the third term of (13) must
	// never produce {core} ∪ all-petals except through 2^X. There exists a
	// branch whose family omits the full set {0,1,2,3}.
	g := hypergraph.StarQuery(3)
	fams := Branches(g)
	foundWithout := false
	for _, f := range fams {
		if !hasSubset(f, 0, 1, 2, 3) {
			foundWithout = true
			// Petals-only subjoin must be present in that family.
			if !hasSubset(f, 1, 2, 3) {
				t.Fatalf("family omits full set but also petals-only: %v", f)
			}
		}
	}
	if !foundWithout {
		t.Fatal("no branch omits the full star subjoin")
	}
}

func TestL4TwoPeelingsGiveDifferentBounds(t *testing.T) {
	// Section 4.2: on L4, peeling {e1,e2} first is dominated by
	// ψ({e1,e3,e4}) = N1·N3·N4/(M²B); peeling {e3,e4} first by
	// ψ({e1,e2,e4}) = N1·N2·N4/(M²B). The best branch picks the smaller.
	g := hypergraph.Line(4)
	m, b := 64, 8
	check := func(sizes cover.Sizes, wantLog float64) {
		got, fam, arg, err := BestBound(g, Branches(g), sizes, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantLog) > 1e-6 {
			t.Fatalf("bound = %v, want %v (family %v, argmax %v)", got, wantLog, fam, arg)
		}
	}
	logT := func(prod float64) float64 {
		return math.Log2(prod) - 2*math.Log2(float64(m)) - math.Log2(float64(b))
	}
	// N2 < N3: best is N1*N2*N4/(M^2 B).
	check(cover.Sizes{0: 1024, 1: 256, 2: 4096, 3: 1024}, logT(1024*256*1024))
	// N3 < N2: best is N1*N3*N4/(M^2 B).
	check(cover.Sizes{0: 1024, 1: 4096, 2: 256, 3: 1024}, logT(1024*256*1024))
}

func TestL5BalancedBoundMatchesPaper(t *testing.T) {
	// Section 4.2 / Corollary 2: on a balanced L5 the best branch gives
	// max(N1N3N5/M², N2N5/M, N1N4/M, N2N4/M)/B.
	g := hypergraph.Line(5)
	m, b := 64, 8
	n := []float64{1 << 11, 1 << 12, 1 << 11, 1 << 12, 1 << 11} // balanced: N1N3N5=2^33 >= N2N4=2^24
	sizes := cover.Sizes{0: n[0], 1: n[1], 2: n[2], 3: n[3], 4: n[4]}
	terms := []float64{
		n[0] * n[2] * n[4] / (float64(m) * float64(m)),
		n[1] * n[4] / float64(m),
		n[0] * n[3] / float64(m),
		n[1] * n[3] / float64(m),
	}
	want := 0.0
	for _, v := range terms {
		if v > want {
			want = v
		}
	}
	wantLog := math.Log2(want) - math.Log2(float64(b))
	got, _, _, err := BestBound(g, Branches(g), sizes, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-wantLog) > 1e-6 {
		t.Fatalf("L5 bound = %v, want %v", got, wantLog)
	}
}

func TestL5BranchCount(t *testing.T) {
	// Section 4.2: "there are a total of 4 S's generatable by GenS(Q) on
	// L5". After inclusion-minimal pruning our enumeration produces exactly
	// those four.
	fams := Branches(hypergraph.Line(5))
	if len(fams) != 4 {
		t.Fatalf("L5 families = %d, want exactly 4 (paper, Section 4.2)", len(fams))
	}
}

func TestL3SingleFamily(t *testing.T) {
	// Section 4.2: both star choices on L3 generate the same S; after
	// pruning a single family of 7 subsets (all except the full set)
	// remains.
	fams := Branches(hypergraph.Line(3))
	if len(fams) != 1 || len(fams[0]) != 7 {
		t.Fatalf("L3 families = %v", fams)
	}
}

func TestWorstCasePsi(t *testing.T) {
	g := hypergraph.Line(3)
	sizes := cover.Sizes{0: 1024, 1: 1 << 20, 2: 1024}
	m, b := 64, 8
	// {e1,e3}: disconnected, product N1*N3 / (M^1 * B).
	v, err := WorstCasePsi(g, sizes, Subset{0, 2}, m, b)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log2(1024*1024) - math.Log2(64) - math.Log2(8)
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("psi = %v, want %v", v, want)
	}
	// Empty subset: -inf.
	v, err = WorstCasePsi(g, sizes, Subset{}, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, -1) {
		t.Fatalf("empty psi = %v", v)
	}
	if _, err := WorstCasePsi(g, sizes, Subset{9}, m, b); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestRankSubsets(t *testing.T) {
	g := hypergraph.Line(3)
	sizes := cover.Sizes{0: 1024, 1: 64, 2: 1024}
	fams := Branches(g)
	r, err := RankSubsets(g, sizes, fams[0], 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) == 0 {
		t.Fatal("no ranked subsets")
	}
	for i := 1; i < len(r); i++ {
		if r[i].Log2 > r[i-1].Log2+1e-9 {
			t.Fatal("ranking not descending")
		}
	}
}

// Theorem 3's bound is never above Theorem 2's, and on stars the gap is
// exactly the excluded core+all-petals term.
func TestTheorem3AtMostTheorem2(t *testing.T) {
	m, b := 64, 8
	shapes := []*hypergraph.Graph{
		hypergraph.Line(3), hypergraph.Line(4), hypergraph.Line(5),
		hypergraph.StarQuery(2), hypergraph.StarQuery(3),
		hypergraph.Lollipop(2), hypergraph.Dumbbell(2, 4),
	}
	for _, g := range shapes {
		sizes := cover.Equal(g, 4096)
		t3, _, _, err := BestBound(g, Branches(g), sizes, m, b)
		if err != nil {
			t.Fatal(err)
		}
		t2, arg2, err := Theorem2Bound(g, sizes, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if t3 > t2+1e-9 {
			t.Errorf("%v: Theorem 3 bound 2^%.2f exceeds Theorem 2 bound 2^%.2f (argmax %v)",
				g, t3, t2, arg2)
		}
	}
	// On a standalone star with a LARGE core, Theorem 2's max includes the
	// core-with-all-petals subjoin that GenS excludes; since the partial
	// join on the petals dominates anyway, the bounds coincide. With equal
	// sizes the binding subset is the petal set in both.
	g := hypergraph.StarQuery(3)
	sizes := cover.Equal(g, 4096)
	_, arg2, err := Theorem2Bound(g, sizes, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(arg2) == 0 {
		t.Fatal("no argmax")
	}
}

func TestBestBoundLollipopAndDumbbell(t *testing.T) {
	// Smoke: branch enumeration terminates and yields finite bounds on the
	// Section 7 shapes.
	for _, g := range []*hypergraph.Graph{hypergraph.Lollipop(3), hypergraph.Dumbbell(2, 5)} {
		sizes := cover.Equal(g, 4096)
		v, fam, arg, err := BestBound(g, Branches(g), sizes, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(v, 0) || len(fam) == 0 || len(arg) == 0 {
			t.Fatalf("degenerate bound on %v: v=%v fam=%v arg=%v", g, v, fam, arg)
		}
	}
}
