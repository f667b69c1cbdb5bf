// Command genplan analyses a join query: hypergraph classification,
// Berge-acyclicity, fractional/integral edge covers, the AGM bound, GenS
// branch families (Algorithm 3) and the Theorem 3 worst-case I/O bound.
//
// The query is given as relation specs "Name:attr1,attr2,..." and sizes as
// "Name=N":
//
//	genplan -m 1024 -b 64 R1:A,B R2:B,C R3:C,D R1=100000 R2=500000 R3=100000
//
// Shortcut shapes: -line n, -star k, -lollipop n, -dumbbell n,m generate the
// paper's query classes with equal sizes (-n).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"acyclicjoin/internal/cli"
	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/gens"
	"acyclicjoin/internal/hypergraph"
)

func main() {
	var (
		m        = flag.Int("m", 1024, "memory size M in tuples")
		b        = flag.Int("b", 64, "block size B in tuples")
		line     = flag.Int("line", 0, "analyze the line query L_n")
		star     = flag.Int("star", 0, "analyze the star query with k petals")
		lollipop = flag.Int("lollipop", 0, "analyze the lollipop join with n petals")
		dumbbell = flag.String("dumbbell", "", "analyze the dumbbell join 'n,m'")
		size     = flag.Float64("n", 1<<20, "relation size for shortcut shapes")
		families = flag.Bool("families", false, "print every GenS family (can be large)")
	)
	flag.Parse()

	g, sizes, err := buildQuery(flag.Args(), *line, *star, *lollipop, *dumbbell, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("query: %v\n", g)
	fmt.Printf("Berge-acyclic: %v\n", g.IsBergeAcyclic())
	if !g.IsBergeAcyclic() {
		fmt.Println("(cost analysis below requires acyclicity; stopping)")
		os.Exit(1)
	}
	fmt.Println("\nclassification:")
	for _, e := range g.Edges() {
		fmt.Printf("  %-14v kind=%-8v unique=%v join=%v\n",
			e, g.KindOf(e), g.UniqueAttrs(e), g.JoinAttrs(e))
	}
	if stars := g.Stars(); len(stars) > 0 {
		fmt.Println("\nstars:")
		for _, s := range stars {
			fmt.Printf("  core=%s petals=%d external=v%d\n", s.Core.Name, len(s.Petals), s.External)
		}
	}

	x, agm, err := cover.Fractional(g, sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nfractional edge cover (Lemma 2: integral on acyclic queries):")
	for _, e := range g.Edges() {
		fmt.Printf("  x(%s) = %.3f\n", e.Name, x[e.ID])
	}
	fmt.Printf("AGM bound: 2^%.2f (max join size)\n", agm)
	fmt.Printf("minimum edge cover (Algorithm 6): %v\n", coverNames(g, cover.GreedyMinCover(g)))

	fams := gens.Branches(g)
	fmt.Printf("\nGenS branches (Algorithm 3): %d famil", len(fams))
	if len(fams) == 1 {
		fmt.Println("y")
	} else {
		fmt.Println("ies")
	}
	boundLog, bestFam, arg, err := gens.BestBound(g, fams, sizes, *m, *b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Theorem 3 worst-case I/O bound (M=%d, B=%d): 2^%.2f ≈ %.3g I/Os\n",
		*m, *b, boundLog, math.Pow(2, boundLog))
	fmt.Printf("binding subjoin: %v\n", coverNames(g, arg))
	ranked, err := gens.RankSubsets(g, sizes, bestFam, *m, *b)
	if err == nil {
		fmt.Println("top subjoin terms of the best family:")
		for i, r := range ranked {
			if i == 6 {
				fmt.Printf("  ... (%d more)\n", len(ranked)-6)
				break
			}
			fmt.Printf("  Psi_wc(%v) = 2^%.2f\n", coverNames(g, r.S), r.Log2)
		}
	}
	if *families {
		fmt.Println("\nall families:")
		for i, f := range fams {
			var parts []string
			for _, s := range f {
				parts = append(parts, fmt.Sprint(coverNames(g, s)))
			}
			fmt.Printf("  S%d: %s\n", i+1, strings.Join(parts, " "))
		}
	}
}

func coverNames(g *hypergraph.Graph, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.Edge(id).Name)
	}
	sort.Strings(out)
	return out
}

func buildQuery(args []string, line, star, lollipop int, dumbbell string, n float64) (*hypergraph.Graph, cover.Sizes, error) {
	var g *hypergraph.Graph
	switch {
	case line > 0:
		g = hypergraph.Line(line)
	case star > 0:
		g = hypergraph.StarQuery(star)
	case lollipop > 0:
		g = hypergraph.Lollipop(lollipop)
	case dumbbell != "":
		parts := strings.SplitN(dumbbell, ",", 2)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("genplan: -dumbbell needs 'n,m'")
		}
		a, err1 := strconv.Atoi(parts[0])
		b, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("genplan: bad -dumbbell %q", dumbbell)
		}
		g = hypergraph.Dumbbell(a, b)
	}
	if g != nil {
		sizes := cover.Equal(g, n)
		// Sizes may be overridden positionally: Name=N args.
		for _, a := range args {
			if i := strings.IndexByte(a, '='); i > 0 {
				v, err := strconv.ParseFloat(a[i+1:], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("genplan: bad size %q", a)
				}
				for _, e := range g.Edges() {
					if e.Name == a[:i] {
						sizes[e.ID] = v
					}
				}
			}
		}
		return g, sizes, nil
	}

	// Parse relation specs and size overrides.
	g2, sizes, err := cli.BuildQuery(args, n)
	if err != nil {
		return nil, nil, fmt.Errorf("genplan: %w (use relation specs or a shortcut shape -line/-star/-lollipop/-dumbbell)", err)
	}
	return g2, sizes, nil
}
