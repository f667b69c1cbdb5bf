// Package gens implements Algorithm 3, GenS(Q): the non-deterministic
// recursive process that generates, per branch, a family S of subsets of the
// query's relations such that the I/O cost of the corresponding branch of
// Algorithm 2 is O(max_{S∈S} Ψ(R,S)) (Theorem 3). Enumerating all branches
// and taking the minimum over families yields the paper's cost expression
// min_{S∈GenS(Q)} max_{S∈S} Ψ(R,S).
//
// The star combination rule follows equation (13) of the Theorem 3 proof:
//
//	GenS(Q) = 2^X
//	        + 2^(X−{e0}) ∘ GenS(Q−X)
//	        + (2^(X−{e0}) − {X−{e0}}) ∘ GenS(Q−X+{e0})
//
// where X is the chosen star with core e0 and ∘ is element-wise union. The
// crucial point is the third term: when the core is kept, the full petal set
// is excluded, which encodes the observation that the star's full subjoin is
// dominated by its petals-only subjoin.
package gens

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
)

// Subset is a sorted set of edge IDs.
type Subset []int

// Key returns a canonical string form of the subset: its edge IDs joined
// by commas.
func (s Subset) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, id := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// Family is a deduplicated set of subsets, kept sorted for determinism.
type Family []Subset

// Branches enumerates the families generatable by every branch of GenS(Q),
// keeping only the inclusion-minimal ones: if one branch's family is a
// subset of another's, the superset's max_{S} Ψ can never be smaller, so
// dropping it never changes min-over-branches. Pruning applies at every
// recursion level (the composition operators preserve inclusion), which
// keeps the enumeration tractable on longer lines where the raw branch
// count explodes combinatorially. The query must be Berge-acyclic.
func Branches(g *hypergraph.Graph) []Family {
	memo := map[string][]Family{}
	fams := pruneFamilies(branches(g, memo))
	sort.Slice(fams, func(i, j int) bool { return familyKey(fams[i]) < familyKey(fams[j]) })
	return fams
}

// pruneFamilies removes duplicates and any family that is a superset of
// another retained family.
func pruneFamilies(fams []Family) []Family {
	// Dedup first.
	seen := map[string]bool{}
	var uniq []Family
	for _, f := range fams {
		k := familyKey(f)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, f)
		}
	}
	// Sort by size so potential subsets come first.
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return familyKey(uniq[i]) < familyKey(uniq[j])
	})
	keysOf := make([]map[string]bool, len(uniq))
	for i, f := range uniq {
		m := make(map[string]bool, len(f))
		for _, s := range f {
			m[s.Key()] = true
		}
		keysOf[i] = m
	}
	var out []Family
	var outKeys []map[string]bool
	for i, f := range uniq {
		dominated := false
		for j := range out {
			// out[j] ⊆ f?
			sub := true
			for k := range outKeys[j] {
				if !keysOf[i][k] {
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
			outKeys = append(outKeys, keysOf[i])
		}
	}
	return out
}

func graphKey(g *hypergraph.Graph) string {
	es := g.Edges()
	parts := make([]string, len(es))
	for i, e := range es {
		a := make([]string, len(e.Attrs))
		for j, x := range e.Attrs {
			a[j] = fmt.Sprint(x)
		}
		parts[i] = fmt.Sprintf("%d:%s", e.ID, strings.Join(a, "."))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func familyKey(f Family) string {
	parts := make([]string, len(f))
	for i, s := range f {
		parts[i] = s.Key()
	}
	return strings.Join(parts, "|")
}

func normalize(f Family) Family {
	seen := map[string]bool{}
	var out Family
	for _, s := range f {
		c := make(Subset, len(s))
		copy(c, s)
		sort.Ints(c)
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

func branches(g *hypergraph.Graph, memo map[string][]Family) []Family {
	key := graphKey(g)
	if got, ok := memo[key]; ok {
		return got
	}
	var result []Family
	switch {
	case g.NumEdges() == 0:
		result = []Family{{Subset{}}}
	default:
		// Bud rule (line 3-4): drop a bud deterministically.
		var bud *hypergraph.Edge
		for _, e := range g.Edges() {
			if g.KindOf(e) == hypergraph.Bud {
				bud = e
				break
			}
		}
		if bud != nil {
			result = branches(g.Without([]int{bud.ID}, nil), memo)
			break
		}
		stars := g.Stars()
		if len(stars) > 0 {
			for _, x := range stars {
				petalIDs := hypergraph.EdgeIDs(x.Petals)
				core := x.Core.ID
				xAll := append(append([]int{}, petalIDs...), core)
				// GenS(Q − X) and GenS(Q − X + {e0}).
				noStar := branches(g.Without(xAll, nil), memo)
				withCore := branches(g.Without(petalIDs, nil), memo)
				pow := powerSet(petalIDs)
				powProper := properSubsets(petalIDs)
				powX := powerSet(xAll)
				for _, f2 := range noStar {
					for _, f1 := range withCore {
						var fam Family
						fam = append(fam, powX...)
						fam = append(fam, compose(pow, f2)...)
						fam = append(fam, compose(powProper, f1)...)
						result = append(result, normalize(fam))
					}
				}
			}
			break
		}
		// Island or leaf rule (lines 13-16), nondeterministic over choices.
		var picks []*hypergraph.Edge
		for _, e := range g.Edges() {
			k := g.KindOf(e)
			if k == hypergraph.Island || k == hypergraph.Leaf {
				picks = append(picks, e)
			}
		}
		if len(picks) == 0 {
			// Should not happen on acyclic inputs (Lemma 1); treat every
			// edge as peelable to stay total.
			picks = g.Edges()
		}
		for _, e := range picks {
			subs := branches(g.Without([]int{e.ID}, nil), memo)
			for _, f := range subs {
				var fam Family
				fam = append(fam, f...)
				for _, s := range f {
					fam = append(fam, append(append(Subset{}, s...), e.ID))
				}
				result = append(result, normalize(fam))
			}
		}
	}
	for i := range result {
		result[i] = normalize(result[i])
	}
	result = pruneFamilies(result)
	memo[key] = result
	return result
}

// compose returns {p ∪ s | p ∈ ps, s ∈ f}.
func compose(ps []Subset, f Family) Family {
	var out Family
	for _, p := range ps {
		for _, s := range f {
			out = append(out, append(append(Subset{}, p...), s...))
		}
	}
	return normalize(out)
}

func powerSet(ids []int) []Subset {
	n := len(ids)
	out := make([]Subset, 0, 1<<n)
	for m := 0; m < 1<<n; m++ {
		var s Subset
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				s = append(s, ids[i])
			}
		}
		sort.Ints(s)
		out = append(out, s)
	}
	return out
}

func properSubsets(ids []int) []Subset {
	all := powerSet(ids)
	return all[:len(all)-1] // power set enumerates the full set last
}

// WorstCasePsi returns the worst-case value of Ψ(R,S) over fully reduced
// instances with the given relation sizes, in log2. For each connected
// component of S the maximum subjoin size on a fully reduced instance is
// the minimum fractional cover of the component's attributes using ALL
// edges of the query (not just the component's own): full reduction lets
// every partial result extend through neighbouring relations, so any edge
// collection covering the attributes bounds the subjoin, and the paper's
// constructions attain the best such bound. Hence
//
//	log2 Ψ_wc(S) = Σ_components cover_log2(attrs) − (|S|−1)·log2 M − log2 B.
func WorstCasePsi(g *hypergraph.Graph, sizes cover.Sizes, s Subset, m, b int) (float64, error) {
	if len(s) == 0 {
		return math.Inf(-1), nil
	}
	sub := g.Subgraph(s)
	if sub.NumEdges() != len(s) {
		return 0, fmt.Errorf("gens: unknown edge in subset %v", s)
	}
	total := 0.0
	for _, comp := range sub.Components() {
		ids := make([]int, len(comp))
		for i, pos := range comp {
			ids[i] = sub.Edges()[pos].ID
		}
		attrs := sub.Subgraph(ids).Attrs()
		_, lg, err := cover.FractionalAttrs(g, sizes, attrs)
		if err != nil {
			return 0, err
		}
		total += lg
	}
	return total - float64(len(s)-1)*math.Log2(float64(m)) - math.Log2(float64(b)), nil
}

// FamilyBound returns log2 of max_{S∈f} Ψ_wc(R,S) plus the arg max.
func FamilyBound(g *hypergraph.Graph, sizes cover.Sizes, f Family, m, b int) (float64, Subset, error) {
	best := math.Inf(-1)
	var arg Subset
	for _, s := range f {
		v, err := WorstCasePsi(g, sizes, s, m, b)
		if err != nil {
			return 0, nil, err
		}
		if v > best {
			best = v
			arg = s
		}
	}
	return best, arg, nil
}

// BestBound evaluates Theorem 3's worst-case cost expression
// min over branches of max_{S} Ψ_wc(R,S) over g's GenS families fams (as
// Branches returns them), returning log2 of the bound, the winning family,
// and its arg-max subset.
func BestBound(g *hypergraph.Graph, fams []Family, sizes cover.Sizes, m, b int) (float64, Family, Subset, error) {
	if len(fams) == 0 {
		return 0, nil, nil, fmt.Errorf("gens: no branches for %v", g)
	}
	best := math.Inf(1)
	var bestFam Family
	var bestArg Subset
	for _, f := range fams {
		v, arg, err := FamilyBound(g, sizes, f, m, b)
		if err != nil {
			return 0, nil, nil, err
		}
		if v < best {
			best = v
			bestFam = f
			bestArg = arg
		}
	}
	return best, bestFam, bestArg, nil
}

// Theorem2Bound evaluates the looser all-subsets bound of Theorem 2,
// log2 of max over every subset S of E of Ψ_wc(R,S). Theorem 3's
// branch-wise bound is always at most this; the difference is what the star
// observation (the core+all-petals exclusion) buys.
func Theorem2Bound(g *hypergraph.Graph, sizes cover.Sizes, m, b int) (float64, Subset, error) {
	edges := g.Edges()
	n := len(edges)
	if n > 20 {
		return 0, nil, fmt.Errorf("gens: Theorem2Bound on %d edges", n)
	}
	best := math.Inf(-1)
	var arg Subset
	for mask := 1; mask < 1<<n; mask++ {
		var s Subset
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, edges[i].ID)
			}
		}
		sort.Ints(s)
		v, err := WorstCasePsi(g, sizes, s, m, b)
		if err != nil {
			return 0, nil, err
		}
		if v > best {
			best = v
			arg = s
		}
	}
	return best, arg, nil
}

// Ranked pairs a subset with its worst-case Ψ (log2).
type Ranked struct {
	S    Subset
	Log2 float64
}

// RankSubsets returns the non-empty subsets of a family ordered by
// decreasing worst-case Ψ given concrete relation sizes. This is the
// numeric analogue of the paper's "dominated subjoins are omitted"
// presentation: the head of the list is the family's binding term.
func RankSubsets(g *hypergraph.Graph, sizes cover.Sizes, f Family, m, b int) ([]Ranked, error) {
	out := make([]Ranked, 0, len(f))
	for _, s := range f {
		if len(s) == 0 {
			continue
		}
		v, err := WorstCasePsi(g, sizes, s, m, b)
		if err != nil {
			return nil, err
		}
		out = append(out, Ranked{S: s, Log2: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Log2 != out[j].Log2 {
			return out[i].Log2 > out[j].Log2
		}
		return out[i].S.Key() < out[j].S.Key()
	})
	return out, nil
}
