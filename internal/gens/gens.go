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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
)

// maxEdges is the largest query GenS takes: a Subset has one bit per edge.
const maxEdges = 64

// Subset is a set of the query's edges as a bit mask: bit i stands for the
// edge with ID i.
type Subset uint64

// IDs returns the subset's edge IDs in ascending order.
func (s Subset) IDs() []int {
	ids := make([]int, 0, s.Len())
	for r := uint64(s); r != 0; r &= r - 1 {
		ids = append(ids, bits.TrailingZeros64(r))
	}
	return ids
}

// Len returns the number of edges in s.
func (s Subset) Len() int { return bits.OnesCount64(uint64(s)) }

// Family is a deduplicated set of subsets. Branches lists each family's
// subsets by size, then by ID list (cmpIDs); inside the recursion they are
// kept in ascending numeric order.
type Family []Subset

// cmpIDs compares two subsets as their ascending ID lists compare
// lexicographically, a prefix first. On equal sizes the subset holding the
// lowest ID of the two's difference comes first.
func cmpIDs(a, b Subset) int {
	d := a ^ b
	if d == 0 {
		return 0
	}
	low := d & -d
	above := ^(low | (low - 1))
	if a&low != 0 { // a comes first unless b's list ends before low
		if b&above != 0 {
			return -1
		}
		return 1
	}
	if a&above != 0 {
		return 1
	}
	return -1
}

func cmpListed(a, b Subset) int { return cmp.Or(cmp.Compare(a.Len(), b.Len()), cmpIDs(a, b)) }

// edgeMask returns the subset of all of g's edges, or an error when an edge
// ID does not fit in a Subset (always so beyond maxEdges relations).
func edgeMask(g *hypergraph.Graph) (Subset, error) {
	if n := g.NumEdges(); n > maxEdges {
		return 0, fmt.Errorf("gens: %d relations; GenS takes at most %d", n, maxEdges)
	}
	var all Subset
	for _, e := range g.Edges() {
		if e.ID < 0 || e.ID >= maxEdges {
			return 0, fmt.Errorf("gens: edge %s has ID %d outside 0..%d", e.Name, e.ID, maxEdges-1)
		}
		all |= 1 << e.ID
	}
	return all, nil
}

// Branches enumerates the families generatable by every branch of GenS(Q),
// keeping only the inclusion-minimal ones: if one branch's family is a
// subset of another's, the superset's max_{S} Ψ can never be smaller, so
// dropping it never changes min-over-branches. Pruning applies at every
// recursion level (the composition operators preserve inclusion), which
// keeps the enumeration tractable on longer lines where the raw branch
// count explodes combinatorially. The families come ordered by their
// decimal listing. The query must be Berge-acyclic; one of more than 64
// relations is refused with an error.
func Branches(g *hypergraph.Graph) ([]Family, error) {
	all, err := edgeMask(g)
	if err != nil {
		return nil, err
	}
	gs := &genS{g: g, memo: map[Subset][]Family{}}
	type listed struct {
		key string
		f   Family
	}
	fams := gs.branches(all)
	ls := make([]listed, len(fams))
	for i, f := range fams {
		f = slices.Clone(f)
		slices.SortFunc(f, cmpListed)
		ls[i] = listed{listing(f), f}
	}
	slices.SortFunc(ls, func(a, b listed) int { return strings.Compare(a.key, b.key) })
	out := make([]Family, len(ls))
	for i, l := range ls {
		out[i] = l.f
	}
	return out, nil
}

// listing renders f as its subsets' comma-joined IDs joined by "|".
func listing(f Family) string {
	var b []byte
	for i, s := range f {
		if i > 0 {
			b = append(b, '|')
		}
		for j, id := range s.IDs() {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
	}
	return string(b)
}

// genS runs the recursion on g. GenS only removes edges and never drops
// attributes, so the mask of the edges left identifies each subquery.
type genS struct {
	g    *hypergraph.Graph
	memo map[Subset][]Family
}

func (gs *genS) branches(rest Subset) []Family {
	if got, ok := gs.memo[rest]; ok {
		return got
	}
	result := []Family{{0}}
	if rest != 0 {
		result = gs.expand(rest)
	}
	gs.memo[rest] = result
	return result
}

// expand applies one GenS rule to the subquery on the edges of rest and
// returns its pruned families.
func (gs *genS) expand(rest Subset) []Family {
	h := gs.g.Subgraph(rest.IDs())
	// Bud rule (lines 3-4): drop a bud deterministically.
	for _, e := range h.Edges() {
		if h.KindOf(e) == hypergraph.Bud {
			return gs.branches(rest &^ (1 << e.ID))
		}
	}
	var result []Family
	if stars := h.Stars(); len(stars) > 0 {
		for _, x := range stars {
			var petals Subset
			for _, p := range x.Petals {
				petals |= 1 << p.ID
			}
			star := petals | 1<<x.Core.ID
			// GenS(Q − X) and GenS(Q − X + {e0}).
			noStar := gs.branches(rest &^ star)
			withCore := gs.branches(rest &^ petals)
			for _, f2 := range noStar {
				for _, f1 := range withCore {
					// Equation (13): every subset of X, every petal subset
					// with each set of f2, every proper one with each of f1.
					var fam Family
					for p := star; ; p = (p - 1) & star {
						fam = append(fam, p)
						if p == 0 {
							break
						}
					}
					for p := petals; ; p = (p - 1) & petals {
						for _, s := range f2 {
							fam = append(fam, s|p)
						}
						if p != petals {
							for _, s := range f1 {
								fam = append(fam, s|p)
							}
						}
						if p == 0 {
							break
						}
					}
					result = append(result, normalize(fam))
				}
			}
		}
		return prune(result)
	}
	// Island or leaf rule (lines 13-16), nondeterministic over choices.
	var picks []*hypergraph.Edge
	for _, e := range h.Edges() {
		k := h.KindOf(e)
		if k == hypergraph.Island || k == hypergraph.Leaf {
			picks = append(picks, e)
		}
	}
	if len(picks) == 0 {
		// Should not happen on acyclic inputs (Lemma 1); treat every
		// edge as peelable to stay total.
		picks = h.Edges()
	}
	for _, e := range picks {
		bit := Subset(1) << e.ID
		for _, f := range gs.branches(rest &^ bit) {
			fam := append(make(Family, 0, 2*len(f)), f...)
			for _, s := range f {
				fam = append(fam, s|bit)
			}
			result = append(result, normalize(fam))
		}
	}
	return prune(result)
}

func normalize(f Family) Family {
	slices.Sort(f)
	return slices.Compact(f)
}

// prune removes duplicate families and every family that contains another
// retained one. fams is reordered in place.
func prune(fams []Family) []Family {
	slices.SortFunc(fams, func(a, b Family) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), slices.Compare(a, b))
	})
	fams = slices.CompactFunc(fams, slices.Equal)
	out := fams[:0]
	for _, f := range fams {
		if !slices.ContainsFunc(out, func(o Family) bool { return within(o, f) }) {
			out = append(out, f)
		}
	}
	return out
}

// within reports whether a ⊆ b, both in ascending order.
func within(a, b Family) bool {
	j := 0
	for _, s := range a {
		for j < len(b) && b[j] < s {
			j++
		}
		if j == len(b) || b[j] != s {
			return false
		}
		j++
	}
	return true
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
	if s == 0 {
		return math.Inf(-1), nil
	}
	sub := g.Subgraph(s.IDs())
	if sub.NumEdges() != s.Len() {
		return 0, fmt.Errorf("gens: unknown edge in subset %v", s.IDs())
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
	return total - float64(s.Len()-1)*math.Log2(float64(m)) - math.Log2(float64(b)), nil
}

// BestBound evaluates Theorem 3's worst-case cost expression
// min over branches of max_{S} Ψ_wc(R,S) over g's GenS families fams (as
// Branches returns them), returning log2 of the bound, the winning family,
// and its arg-max subset. Ψ is computed once per distinct subset.
func BestBound(g *hypergraph.Graph, fams []Family, sizes cover.Sizes, m, b int) (float64, Family, Subset, error) {
	if len(fams) == 0 {
		return 0, nil, 0, fmt.Errorf("gens: no branches for %v", g)
	}
	psi := map[Subset]float64{}
	best := math.Inf(1)
	var bestFam Family
	var bestArg Subset
	for _, f := range fams {
		worst, arg := math.Inf(-1), Subset(0)
		for _, s := range f {
			v, ok := psi[s]
			if !ok {
				var err error
				if v, err = WorstCasePsi(g, sizes, s, m, b); err != nil {
					return 0, nil, 0, err
				}
				psi[s] = v
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

// Theorem2Bound evaluates the looser all-subsets bound of Theorem 2,
// log2 of max over every subset S of E of Ψ_wc(R,S). Theorem 3's
// branch-wise bound is always at most this; the difference is what the star
// observation (the core+all-petals exclusion) buys.
func Theorem2Bound(g *hypergraph.Graph, sizes cover.Sizes, m, b int) (float64, Subset, error) {
	if n := g.NumEdges(); n > 20 {
		return 0, 0, fmt.Errorf("gens: Theorem2Bound on %d edges", n)
	}
	all, err := edgeMask(g)
	if err != nil {
		return 0, 0, err
	}
	best := math.Inf(-1)
	var arg Subset
	// Every non-empty subset in ascending numeric order.
	for s := -all & all; s != 0; s = (s - all) & all {
		v, err := WorstCasePsi(g, sizes, s, m, b)
		if err != nil {
			return 0, 0, err
		}
		if v > best {
			best, arg = v, s
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
// decreasing worst-case Ψ given concrete relation sizes, ties by ID list.
// This is the numeric analogue of the paper's "dominated subjoins are
// omitted" presentation: the head of the list is the family's binding term.
func RankSubsets(g *hypergraph.Graph, sizes cover.Sizes, f Family, m, b int) ([]Ranked, error) {
	out := make([]Ranked, 0, len(f))
	for _, s := range f {
		if s == 0 {
			continue
		}
		v, err := WorstCasePsi(g, sizes, s, m, b)
		if err != nil {
			return nil, err
		}
		out = append(out, Ranked{S: s, Log2: v})
	}
	slices.SortFunc(out, func(x, y Ranked) int {
		return cmp.Or(cmp.Compare(y.Log2, x.Log2), cmpIDs(x.S, y.S))
	})
	return out, nil
}
