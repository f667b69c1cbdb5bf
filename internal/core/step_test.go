package core

import (
	"fmt"
	"slices"
	"testing"

	"acyclicjoin/internal/hypergraph"
)

// stepShapes are the query shapes of hypergraph/shapes.go, plus a bud over
// two leaves and a pair of islands, which no generator builds.
func stepShapes() map[string]*hypergraph.Graph {
	out := map[string]*hypergraph.Graph{
		"bud over two leaves": hypergraph.MustNew([]*hypergraph.Edge{
			{ID: 0, Name: "Bud", Attrs: []int{0}},
			{ID: 1, Name: "L1", Attrs: []int{0, 1}},
			{ID: 2, Name: "L2", Attrs: []int{0, 2}},
		}),
		"two islands": hypergraph.MustNew([]*hypergraph.Edge{
			{ID: 0, Name: "A", Attrs: []int{0, 1}},
			{ID: 1, Name: "B", Attrs: []int{5, 6}},
		}),
	}
	for n := 1; n <= 8; n++ {
		out[fmt.Sprintf("L%d", n)] = hypergraph.Line(n)
	}
	for k := 1; k <= 4; k++ {
		out[fmt.Sprintf("star%d", k)] = hypergraph.StarQuery(k)
	}
	for n := 2; n <= 4; n++ {
		out[fmt.Sprintf("lollipop%d", n)] = hypergraph.Lollipop(n)
	}
	for _, nm := range [][2]int{{2, 4}, {2, 5}, {3, 6}} {
		out[fmt.Sprintf("dumbbell%d,%d", nm[0], nm[1])] = hypergraph.Dumbbell(nm[0], nm[1])
	}
	return out
}

// checkStep compares step s with the direct analysis of g, the graph the
// recursion would have built for it.
func checkStep(t *testing.T, name string, s *step, g *hypergraph.Graph) {
	t.Helper()
	if s.key != structureKey(g) || s.g.String() != g.String() {
		t.Fatalf("%s: step of %v holds %v (key %q)", name, g, s.g, s.key)
	}
	edges := g.Edges()
	var bud, island *hypergraph.Edge
	var leaves []*hypergraph.Edge
	for _, e := range edges {
		switch g.KindOf(e) {
		case hypergraph.Bud:
			if bud == nil {
				bud = e
			}
		case hypergraph.Island:
			if island == nil {
				island = e
			}
		case hypergraph.Leaf:
			leaves = append(leaves, e)
		}
	}
	want := stepStuck
	switch {
	case len(edges) == 0:
		want = stepEmpty
	case len(edges) == 1:
		want = stepBase
	case bud != nil:
		want = stepBud
	case island != nil:
		want = stepIsland
	case len(leaves) > 0:
		want = stepLeaves
	}
	if s.kind != want {
		t.Fatalf("%s: step of %v has kind %d, want %d", name, g, s.kind, want)
	}
	switch s.kind {
	case stepBase:
		if s.edge.ID != edges[0].ID {
			t.Fatalf("%s: base step of %v scans edge %d", name, g, s.edge.ID)
		}
	case stepBud:
		if s.edge.ID != bud.ID || s.v != g.LeafJoinAttr(bud) || !slices.Equal(hypergraph.EdgeIDs(s.gamma), hypergraph.EdgeIDs(g.Neighbors(bud))) {
			t.Fatalf("%s: bud step of %v = edge %d, v%d, Γ %v", name, g, s.edge.ID, s.v, hypergraph.EdgeIDs(s.gamma))
		}
	case stepIsland:
		if s.edge.ID != island.ID {
			t.Fatalf("%s: island step of %v drops edge %d, want %d", name, g, s.edge.ID, island.ID)
		}
	case stepLeaves:
		if !slices.Equal(hypergraph.EdgeIDs(s.leaves), hypergraph.EdgeIDs(leaves)) {
			t.Fatalf("%s: step of %v offers leaves %v, want %v", name, g, hypergraph.EdgeIDs(s.leaves), hypergraph.EdgeIDs(leaves))
		}
	}
}

// TestStepTableMatchesAnalysis walks the step table of every shape through
// every step it can reach (each leaf of each peel, both residues) and checks
// each step, and each peel, against the direct hypergraph analysis of the
// graph the recursion would have built. The table must hold exactly the
// steps reached, one per structure.
func TestStepTableMatchesAnalysis(t *testing.T) {
	for name, g := range stepShapes() {
		tab := newStepTable()
		seen := map[*step]bool{}
		var walk func(s *step, g *hypergraph.Graph)
		walk = func(s *step, g *hypergraph.Graph) {
			checkStep(t, name, s, g)
			if seen[s] {
				return
			}
			seen[s] = true
			switch s.kind {
			case stepBud, stepIsland:
				walk(s.next(), g.Without([]int{s.edge.ID}, nil))
			case stepLeaves:
				for i, e := range s.leaves {
					p := s.peel(i)
					v, u := g.LeafJoinAttr(e), g.UniqueAttrs(e)
					if p.v != v || !slices.Equal(p.u, u) || !slices.Equal(hypergraph.EdgeIDs(p.gamma), hypergraph.EdgeIDs(g.Neighbors(e))) {
						t.Fatalf("%s: peel of %s in %v = v%d, u %v, Γ %v", name, e, g, p.v, p.u, hypergraph.EdgeIDs(p.gamma))
					}
					walk(p.heavy, g.Without([]int{e.ID}, append(slices.Clone(u), v)))
					walk(p.light, g.Without([]int{e.ID}, u))
				}
			}
		}
		root := tab.of(g)
		walk(root, g)
		if len(tab.byKey) != len(seen) {
			t.Fatalf("%s: table holds %d steps, the walk reached %d", name, len(tab.byKey), len(seen))
		}
		if again := tab.of(g.Without(nil, nil)); again != root {
			t.Fatalf("%s: a copy of the query got a step of its own", name)
		}
	}
}

// branchFreeDirect is branchFree computed from the hypergraph directly, with
// no step table: the walk over KindOf, Without and structureKey that the
// table's walk must agree with.
func branchFreeDirect(g *hypergraph.Graph, disableSplit bool) bool {
	seen := map[string]bool{}
	var walk func(g *hypergraph.Graph) bool
	walk = func(g *hypergraph.Graph) bool {
		edges := g.Edges()
		if len(edges) <= 1 {
			return true
		}
		key := structureKey(g)
		if seen[key] {
			return true
		}
		seen[key] = true
		for _, k := range []hypergraph.Kind{hypergraph.Bud, hypergraph.Island} {
			for _, e := range edges {
				if g.KindOf(e) == k {
					return walk(g.Without([]int{e.ID}, nil))
				}
			}
		}
		var leaves []*hypergraph.Edge
		for _, e := range edges {
			if g.KindOf(e) == hypergraph.Leaf {
				leaves = append(leaves, e)
			}
		}
		if len(leaves) != 1 {
			return false
		}
		leaf := leaves[0]
		v, u := g.LeafJoinAttr(leaf), g.UniqueAttrs(leaf)
		if !disableSplit && !walk(g.Without([]int{leaf.ID}, append(slices.Clone(u), v))) {
			return false
		}
		return walk(g.Without([]int{leaf.ID}, u))
	}
	return walk(g)
}

// TestBranchFreeMatchesDirectWalk: the step-table walk picks the
// single-branch path for exactly the shapes the direct walk does.
func TestBranchFreeMatchesDirectWalk(t *testing.T) {
	free := 0
	for name, g := range stepShapes() {
		for _, split := range []bool{false, true} {
			got, want := branchFree(newStepTable().of(g), split), branchFreeDirect(g, split)
			if got != want {
				t.Errorf("%s (no split %v): branchFree = %v, direct walk %v", name, split, got, want)
			}
			if got {
				free++
			}
		}
	}
	if free == 0 {
		t.Fatal("no shape is branch-free: the comparison shows nothing")
	}
}
