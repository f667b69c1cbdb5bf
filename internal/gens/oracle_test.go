package gens

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
)

// The reference below is the string-keyed GenS the mask version replaced:
// subsets are sorted ID lists compared by their decimal keys, subgraphs are
// memoized by a printed key, and Ψ is solved once per (family, subset).

type refSubset []int

func (s refSubset) key() string {
	var b []byte
	for i, id := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

type refFamily []refSubset

func refFamilyKey(f refFamily) string {
	parts := make([]string, len(f))
	for i, s := range f {
		parts[i] = s.key()
	}
	return strings.Join(parts, "|")
}

func refBranches(g *hypergraph.Graph) []refFamily {
	fams := refPrune(refRecurse(g, map[string][]refFamily{}))
	sort.Slice(fams, func(i, j int) bool { return refFamilyKey(fams[i]) < refFamilyKey(fams[j]) })
	return fams
}

func refPrune(fams []refFamily) []refFamily {
	seen := map[string]bool{}
	var uniq []refFamily
	for _, f := range fams {
		if k := refFamilyKey(f); !seen[k] {
			seen[k] = true
			uniq = append(uniq, f)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return refFamilyKey(uniq[i]) < refFamilyKey(uniq[j])
	})
	var out []refFamily
	var outKeys []map[string]bool
	for _, f := range uniq {
		keys := map[string]bool{}
		for _, s := range f {
			keys[s.key()] = true
		}
		dominated := false
		for _, ok := range outKeys {
			sub := true
			for k := range ok {
				if !keys[k] {
					sub = false
					break
				}
			}
			if sub {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, f)
			outKeys = append(outKeys, keys)
		}
	}
	return out
}

func refGraphKey(g *hypergraph.Graph) string {
	parts := make([]string, 0, g.NumEdges())
	for _, e := range g.Edges() {
		parts = append(parts, fmt.Sprintf("%d:%v", e.ID, e.Attrs))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func refNormalize(f refFamily) refFamily {
	seen := map[string]bool{}
	var out refFamily
	for _, s := range f {
		c := slices.Clone(s)
		sort.Ints(c)
		if k := c.key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].key() < out[j].key()
	})
	return out
}

func refRecurse(g *hypergraph.Graph, memo map[string][]refFamily) []refFamily {
	key := refGraphKey(g)
	if got, ok := memo[key]; ok {
		return got
	}
	var result []refFamily
	switch {
	case g.NumEdges() == 0:
		result = []refFamily{{refSubset{}}}
	default:
		var bud *hypergraph.Edge
		for _, e := range g.Edges() {
			if g.KindOf(e) == hypergraph.Bud {
				bud = e
				break
			}
		}
		if bud != nil {
			result = refRecurse(g.Without([]int{bud.ID}, nil), memo)
			break
		}
		if stars := g.Stars(); len(stars) > 0 {
			for _, x := range stars {
				petalIDs := hypergraph.EdgeIDs(x.Petals)
				xAll := append(slices.Clone(petalIDs), x.Core.ID)
				noStar := refRecurse(g.Without(xAll, nil), memo)
				withCore := refRecurse(g.Without(petalIDs, nil), memo)
				pow := refPowerSet(petalIDs)
				powProper := pow[:len(pow)-1] // the full set comes last
				powX := refPowerSet(xAll)
				for _, f2 := range noStar {
					for _, f1 := range withCore {
						var fam refFamily
						fam = append(fam, powX...)
						fam = append(fam, refCompose(pow, f2)...)
						fam = append(fam, refCompose(powProper, f1)...)
						result = append(result, refNormalize(fam))
					}
				}
			}
			break
		}
		var picks []*hypergraph.Edge
		for _, e := range g.Edges() {
			if k := g.KindOf(e); k == hypergraph.Island || k == hypergraph.Leaf {
				picks = append(picks, e)
			}
		}
		if len(picks) == 0 {
			picks = g.Edges()
		}
		for _, e := range picks {
			for _, f := range refRecurse(g.Without([]int{e.ID}, nil), memo) {
				fam := slices.Clone(f)
				for _, s := range f {
					fam = append(fam, append(slices.Clone(s), e.ID))
				}
				result = append(result, refNormalize(fam))
			}
		}
	}
	for i := range result {
		result[i] = refNormalize(result[i])
	}
	result = refPrune(result)
	memo[key] = result
	return result
}

func refCompose(ps []refSubset, f refFamily) refFamily {
	var out refFamily
	for _, p := range ps {
		for _, s := range f {
			out = append(out, append(slices.Clone(p), s...))
		}
	}
	return refNormalize(out)
}

func refPowerSet(ids []int) []refSubset {
	out := make([]refSubset, 0, 1<<len(ids))
	for m := 0; m < 1<<len(ids); m++ {
		var s refSubset
		for i, id := range ids {
			if m&(1<<i) != 0 {
				s = append(s, id)
			}
		}
		sort.Ints(s)
		out = append(out, s)
	}
	return out
}

func refPsi(g *hypergraph.Graph, sizes cover.Sizes, s refSubset, m, b int) (float64, error) {
	return WorstCasePsi(g, sizes, mask(s...), m, b)
}

func refBestBound(g *hypergraph.Graph, fams []refFamily, sizes cover.Sizes, m, b int) (float64, refFamily, refSubset, error) {
	best := math.Inf(1)
	var bestFam refFamily
	var bestArg refSubset
	for _, f := range fams {
		worst := math.Inf(-1)
		var arg refSubset
		for _, s := range f {
			v, err := refPsi(g, sizes, s, m, b)
			if err != nil {
				return 0, nil, nil, err
			}
			if v > worst {
				worst, arg = v, s
			}
		}
		if worst < best {
			best, bestFam, bestArg = worst, f, arg
		}
	}
	return best, bestFam, bestArg, nil
}

type refRanked struct {
	S    refSubset
	Log2 float64
}

func refRankSubsets(g *hypergraph.Graph, sizes cover.Sizes, f refFamily, m, b int) ([]refRanked, error) {
	var out []refRanked
	for _, s := range f {
		if len(s) == 0 {
			continue
		}
		v, err := refPsi(g, sizes, s, m, b)
		if err != nil {
			return nil, err
		}
		out = append(out, refRanked{S: s, Log2: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Log2 != out[j].Log2 {
			return out[i].Log2 > out[j].Log2
		}
		return out[i].S.key() < out[j].S.key()
	})
	return out, nil
}

// randomAcyclic builds a Berge-acyclic query on n edges: each edge takes at
// most one attribute already in use plus fresh ones, so its incidence graph
// stays a forest. Islands, buds, several components and several petals on
// one attribute all occur.
func randomAcyclic(rng *rand.Rand, n int) *hypergraph.Graph {
	attrs := 0
	edges := make([]*hypergraph.Edge, n)
	for i := range edges {
		e := &hypergraph.Edge{ID: i, Name: fmt.Sprintf("R%d", i)}
		if attrs > 0 && rng.Intn(5) != 0 {
			e.Attrs = append(e.Attrs, rng.Intn(attrs))
		}
		for k := rng.Intn(3); k > 0 || len(e.Attrs) == 0; k-- {
			e.Attrs = append(e.Attrs, attrs)
			attrs++
		}
		edges[i] = e
	}
	return hypergraph.MustNew(edges)
}

// oracleShape picks a query of at most 7 edges: a random acyclic one or one
// of the paper's lines, stars, lollipops and dumbbells.
func oracleShape(rng *rand.Rand, kind, n uint8) *hypergraph.Graph {
	switch kind % 5 {
	case 0:
		return hypergraph.Line(1 + int(n%7))
	case 1:
		return hypergraph.StarQuery(1 + int(n%6))
	case 2:
		return hypergraph.Lollipop(2 + int(n%4))
	case 3:
		nm := [][2]int{{2, 4}, {2, 5}, {3, 5}, {2, 6}, {3, 6}, {4, 6}}[n%6]
		return hypergraph.Dumbbell(nm[0], nm[1])
	}
	return randomAcyclic(rng, 1+int(n%7))
}

func asIDs[S ~[]int](f []S) [][]int {
	out := make([][]int, len(f))
	for i, s := range f {
		out[i] = s
	}
	return out
}

func familyIDs(f Family) [][]int {
	out := make([][]int, len(f))
	for i, s := range f {
		out[i] = s.IDs()
	}
	return out
}

func sameIDs(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal) }

// FuzzBranchesOracle holds the mask GenS to the string-keyed reference on
// random acyclic queries and the paper's shapes, with random sizes, M and
// B: the same families in the same order, the same bound, winning family
// and arg-max subset, and the same ranking of the winning family.
func FuzzBranchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(3), uint8(3))
	f.Add(int64(2), uint8(4), uint8(6), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kind, n, mRaw, bRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := oracleShape(rng, kind, n)
		b := 1 << (bRaw % 7)
		m := b * (2 + int(mRaw%31))
		sizes := cover.Sizes{}
		for _, e := range g.Edges() {
			sizes[e.ID] = float64(1 + rng.Intn(1<<(1+rng.Intn(20))))
		}

		want := refBranches(g)
		got, err := Branches(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d families, want %d", g, len(got), len(want))
		}
		for i := range want {
			if !sameIDs(familyIDs(got[i]), asIDs(want[i])) {
				t.Fatalf("%v: family %d is %v, want %v", g, i, familyIDs(got[i]), want[i])
			}
		}

		wantLog, wantFam, wantArg, err := refBestBound(g, want, sizes, m, b)
		if err != nil {
			t.Fatal(err)
		}
		gotLog, gotFam, gotArg, err := BestBound(g, got, sizes, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if gotLog != wantLog || !sameIDs(familyIDs(gotFam), asIDs(wantFam)) || !slices.Equal(gotArg.IDs(), wantArg) {
			t.Fatalf("%v sizes %v M=%d B=%d: bound 2^%v family %v arg %v, want 2^%v family %v arg %v",
				g, sizes, m, b, gotLog, familyIDs(gotFam), gotArg.IDs(), wantLog, wantFam, wantArg)
		}

		wantRank, err := refRankSubsets(g, sizes, wantFam, m, b)
		if err != nil {
			t.Fatal(err)
		}
		gotRank, err := RankSubsets(g, sizes, gotFam, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRank) != len(wantRank) {
			t.Fatalf("%v: ranked %d subsets, want %d", g, len(gotRank), len(wantRank))
		}
		for i, w := range wantRank {
			if r := gotRank[i]; r.Log2 != w.Log2 || !slices.Equal(r.S.IDs(), w.S) {
				t.Fatalf("%v: rank %d is %v 2^%v, want %v 2^%v", g, i, r.S.IDs(), r.Log2, w.S, w.Log2)
			}
		}
	})
}
