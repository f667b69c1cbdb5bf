// Package hypergraph models join queries as hypergraphs (V, E) and provides
// the structural analyses the paper's algorithms depend on: Berge-acyclicity
// (Section 1.3), the attribute/relation classification of Section 2.2.2
// (unique vs. join attributes; islands, buds, leaves), star detection
// (Section 4.2), join-forest construction for Yannakakis' algorithm, and
// shape detectors for the query classes studied in Sections 5–7 (lines,
// stars, lollipops, dumbbells).
//
// Attributes are global integer IDs shared with package tuple; a Graph names
// a subset of them. Edges carry stable IDs so that subqueries produced by
// peeling can be related back to the original query.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Attr identifies an attribute (a vertex of the hypergraph).
type Attr = int

// Edge is one relation of the query: a named set of attributes.
type Edge struct {
	// ID is the edge's stable identity, preserved across subqueries.
	ID int
	// Name is a human-readable label (e.g. "R1").
	Name string
	// Attrs is the sorted set of attribute IDs.
	Attrs []Attr
}

// Has reports whether the edge contains attribute a.
func (e *Edge) Has(a Attr) bool {
	for _, x := range e.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the edge.
func (e *Edge) Clone() *Edge {
	attrs := make([]Attr, len(e.Attrs))
	copy(attrs, e.Attrs)
	return &Edge{ID: e.ID, Name: e.Name, Attrs: attrs}
}

func (e *Edge) String() string {
	parts := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		parts[i] = fmt.Sprintf("v%d", a)
	}
	return fmt.Sprintf("%s{%s}", e.Name, strings.Join(parts, ","))
}

// Graph is a query hypergraph. The zero value is an empty query.
type Graph struct {
	edges []*Edge
}

// New builds a graph from edges. Attribute lists are copied and sorted.
// Edge IDs are assigned by position if the provided IDs are all zero and
// there is more than one edge; otherwise the given IDs are kept. Duplicate
// IDs or duplicate attributes within an edge are rejected.
func New(edges []*Edge) (*Graph, error) {
	g := &Graph{}
	seen := map[int]bool{}
	autoID := true
	for _, e := range edges {
		if e.ID != 0 {
			autoID = false
		}
	}
	if len(edges) <= 1 {
		autoID = false // a single edge with ID 0 is fine as-is
	}
	for i, e := range edges {
		c := e.Clone()
		if autoID {
			c.ID = i
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("hypergraph: duplicate edge ID %d", c.ID)
		}
		seen[c.ID] = true
		sort.Ints(c.Attrs)
		for j := 1; j < len(c.Attrs); j++ {
			if c.Attrs[j] == c.Attrs[j-1] {
				return nil, fmt.Errorf("hypergraph: edge %s repeats attribute v%d", c.Name, c.Attrs[j])
			}
		}
		for _, a := range c.Attrs {
			if a < 0 {
				return nil, fmt.Errorf("hypergraph: edge %s has negative attribute %d", c.Name, a)
			}
		}
		g.edges = append(g.edges, c)
	}
	return g, nil
}

// MustNew is New but panics on error; for tests and static query shapes.
func MustNew(edges []*Edge) *Graph {
	g, err := New(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Edges returns the edges in construction order. Callers must not mutate.
func (g *Graph) Edges() []*Edge { return g.edges }

// NumEdges returns the number of relations.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given stable ID, or nil.
func (g *Graph) Edge(id int) *Edge {
	for _, e := range g.edges {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Attrs returns the sorted set of attributes used by any edge.
func (g *Graph) Attrs() []Attr {
	set := map[Attr]bool{}
	for _, e := range g.edges {
		for _, a := range e.Attrs {
			set[a] = true
		}
	}
	out := make([]Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// MaxAttr returns the largest attribute ID used, or -1 for an empty graph.
func (g *Graph) MaxAttr() Attr {
	max := -1
	for _, e := range g.edges {
		for _, a := range e.Attrs {
			if a > max {
				max = a
			}
		}
	}
	return max
}

// EdgesWith returns the edges containing attribute a, in edge order.
func (g *Graph) EdgesWith(a Attr) []*Edge {
	var out []*Edge
	for _, e := range g.edges {
		if e.Has(a) {
			out = append(out, e)
		}
	}
	return out
}

// Degree returns how many edges contain attribute a.
func (g *Graph) Degree(a Attr) int {
	n := 0
	for _, e := range g.edges {
		if e.Has(a) {
			n++
		}
	}
	return n
}

// IsJoinAttr reports whether a appears in at least two edges.
func (g *Graph) IsJoinAttr(a Attr) bool { return g.Degree(a) >= 2 }

// JoinAttrs returns e's attributes appearing in some other edge of g.
func (g *Graph) JoinAttrs(e *Edge) []Attr {
	var out []Attr
	for _, a := range e.Attrs {
		if g.IsJoinAttr(a) {
			out = append(out, a)
		}
	}
	return out
}

// UniqueAttrs returns e's attributes appearing in no other edge of g.
func (g *Graph) UniqueAttrs(e *Edge) []Attr {
	var out []Attr
	for _, a := range e.Attrs {
		if !g.IsJoinAttr(a) {
			out = append(out, a)
		}
	}
	return out
}

// Kind classifies an edge per Section 2.2.2.
type Kind int

const (
	// Island: no join attributes (cross product with the rest).
	Island Kind = iota
	// Bud: exactly one attribute, which is a join attribute.
	Bud
	// Leaf: at least one unique attribute and exactly one join attribute.
	Leaf
	// Internal: anything else (two or more join attributes).
	Internal
)

func (k Kind) String() string {
	switch k {
	case Island:
		return "island"
	case Bud:
		return "bud"
	case Leaf:
		return "leaf"
	case Internal:
		return "internal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindOf classifies edge e within g.
func (g *Graph) KindOf(e *Edge) Kind {
	j := len(g.JoinAttrs(e))
	u := len(e.Attrs) - j
	switch {
	case j == 0:
		return Island
	case j == 1 && u == 0:
		return Bud
	case j == 1:
		return Leaf
	default:
		return Internal
	}
}

// LeafJoinAttr returns the single join attribute of a leaf or bud edge.
// It panics if e is not a leaf or bud in g.
func (g *Graph) LeafJoinAttr(e *Edge) Attr {
	js := g.JoinAttrs(e)
	if len(js) != 1 {
		panic(fmt.Sprintf("hypergraph: LeafJoinAttr(%s): %d join attributes", e, len(js)))
	}
	return js[0]
}

// Neighbors returns Γ(e): the other edges sharing the single join attribute
// of leaf/bud e.
func (g *Graph) Neighbors(e *Edge) []*Edge {
	v := g.LeafJoinAttr(e)
	var out []*Edge
	for _, o := range g.EdgesWith(v) {
		if o.ID != e.ID {
			out = append(out, o)
		}
	}
	return out
}

// IsBergeAcyclic reports whether the bipartite incidence graph between
// attributes and edges is acyclic (a forest). This is the paper's notion of
// acyclicity; in particular two edges sharing two or more attributes form a
// cycle and are rejected.
func (g *Graph) IsBergeAcyclic() bool {
	// Union-find over attribute nodes and edge nodes.
	attrs := g.Attrs()
	idx := map[Attr]int{}
	for i, a := range attrs {
		idx[a] = i
	}
	n := len(attrs) + len(g.edges)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for ei, e := range g.edges {
		en := len(attrs) + ei
		for _, a := range e.Attrs {
			an := idx[a]
			ra, re := find(an), find(en)
			if ra == re {
				return false
			}
			parent[ra] = re
		}
	}
	return true
}

// Components partitions the edges into connected components (edges are
// connected when they share an attribute). Each component lists edge
// positions into Edges(); components are ordered by their smallest position.
func (g *Graph) Components() [][]int {
	n := len(g.edges)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byAttr := map[Attr]int{}
	for i, e := range g.edges {
		for _, a := range e.Attrs {
			if j, ok := byAttr[a]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				byAttr[a] = i
			}
		}
	}
	groups := map[int][]int{}
	var order []int
	for i := range g.edges {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// IsConnected reports whether the edges form a single connected component
// (true for the empty graph).
func (g *Graph) IsConnected() bool { return len(g.Components()) <= 1 }

// Without returns a new graph with the edges whose IDs are listed removed
// and, additionally, the given attributes deleted from all remaining edges
// (used by Algorithm 2, which removes the join attribute when processing
// heavy values and the unique attributes of a peeled leaf).
func (g *Graph) Without(edgeIDs []int, attrs []Attr) *Graph {
	drop := map[int]bool{}
	for _, id := range edgeIDs {
		drop[id] = true
	}
	dropAttr := map[Attr]bool{}
	for _, a := range attrs {
		dropAttr[a] = true
	}
	out := &Graph{}
	for _, e := range g.edges {
		if drop[e.ID] {
			continue
		}
		c := &Edge{ID: e.ID, Name: e.Name}
		for _, a := range e.Attrs {
			if !dropAttr[a] {
				c.Attrs = append(c.Attrs, a)
			}
		}
		out.edges = append(out.edges, c)
	}
	return out
}

// Subgraph returns the graph restricted to the edges with the given IDs
// (attributes untouched).
func (g *Graph) Subgraph(edgeIDs []int) *Graph {
	keep := map[int]bool{}
	for _, id := range edgeIDs {
		keep[id] = true
	}
	out := &Graph{}
	for _, e := range g.edges {
		if keep[e.ID] {
			out.edges = append(out.edges, e.Clone())
		}
	}
	return out
}

func (g *Graph) String() string {
	parts := make([]string, len(g.edges))
	for i, e := range g.edges {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Star describes one star of the query, per Section 4.2: a core with no
// unique attributes, k >= 1 petals (leaves attached to the core), and at most
// one join attribute connecting the core to the rest of the query.
type Star struct {
	// Core is the central edge (no unique attributes).
	Core *Edge
	// Petals are leaf edges whose join attribute lies in the core and is
	// shared with no edge outside the star (except possibly other petals on
	// the same attribute).
	Petals []*Edge
	// External is the core attribute connecting the star to the rest of the
	// query, or -1 when the star is the whole (component of the) query.
	External Attr
}

// Stars enumerates the stars of g, including the non-maximal variants GenS
// may pick: when a core has no external attribute, each choice of one
// petal-attribute to leave out (which then becomes the external attribute)
// is also a valid star, matching Section 4.2's reading of L3 where either
// {e1,e2} or {e2,e3} may be peeled as a star. Per attribute the choice is
// all-or-nothing, since a petal must intersect nothing but the core.
func (g *Graph) Stars() []*Star {
	var out []*Star
	for _, e0 := range g.edges {
		if len(g.UniqueAttrs(e0)) != 0 {
			continue
		}
		// Classify each core attribute: a "petal attribute" is shared only
		// with leaves/buds whose single join attribute is that attribute.
		petalsByAttr := map[Attr][]*Edge{}
		var petalAttrs, external []Attr
		ok := true
		for _, a := range e0.Attrs {
			others := []*Edge{}
			for _, o := range g.EdgesWith(a) {
				if o.ID != e0.ID {
					others = append(others, o)
				}
			}
			if len(others) == 0 {
				// An attribute private to the core would be a unique
				// attribute; excluded above.
				ok = false
				break
			}
			allPetals := true
			for _, o := range others {
				k := g.KindOf(o)
				if (k == Leaf || k == Bud) && g.LeafJoinAttr(o) == a {
					continue
				}
				allPetals = false
				break
			}
			if allPetals {
				petalsByAttr[a] = others
				petalAttrs = append(petalAttrs, a)
			} else {
				external = append(external, a)
			}
		}
		if !ok || len(petalAttrs) == 0 || len(external) > 1 {
			continue
		}
		gather := func(attrs []Attr) []*Edge {
			var ps []*Edge
			for _, a := range attrs {
				ps = append(ps, petalsByAttr[a]...)
			}
			return ps
		}
		if len(external) == 1 {
			out = append(out, &Star{Core: e0, Petals: gather(petalAttrs), External: external[0]})
			continue
		}
		// No external attribute: the full star, plus each variant leaving
		// one petal attribute out as the external connection.
		out = append(out, &Star{Core: e0, Petals: gather(petalAttrs), External: -1})
		if len(petalAttrs) >= 2 {
			for i, excl := range petalAttrs {
				rest := make([]Attr, 0, len(petalAttrs)-1)
				rest = append(rest, petalAttrs[:i]...)
				rest = append(rest, petalAttrs[i+1:]...)
				out = append(out, &Star{Core: e0, Petals: gather(rest), External: excl})
			}
		}
	}
	return out
}

// EdgeIDs extracts the stable IDs of the given edges.
func EdgeIDs(es []*Edge) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// IDs returns the set of all edge IDs of the star (core + petals).
func (s *Star) IDs() []int {
	out := []int{s.Core.ID}
	out = append(out, EdgeIDs(s.Petals)...)
	return out
}
