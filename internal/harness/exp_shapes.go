package harness

import (
	"fmt"
	"math"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/gens"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E10",
		Artifact: "Section 5, Theorem 4, Figure 5",
		Title:    "Star joins: worst case matches prod(petals)/(M^{k-1} B)",
		Run:      runE10,
	})
	Register(&Experiment{
		ID:       "E11",
		Artifact: "Section 7.1, Theorem 7, Algorithm 6",
		Title:    "Equal-size acyclic joins: (N/M)^c * M/B with c = min edge cover",
		Run:      runE11,
	})
	Register(&Experiment{
		ID:       "E12",
		Artifact: "Section 7.2, Figure 8",
		Title:    "Lollipop joins: peel-order switch at N0 vs Nn",
		Run:      runE12,
	})
	Register(&Experiment{
		ID:       "E13",
		Artifact: "Section 7.3, Figure 9, condition (7)",
		Title:    "Dumbbell joins: cost across the balance condition",
		Run:      runE13,
	})
}

func runE10(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E10: star join worst case (Theorem 4 construction)",
		Header: []string{"petals", "petal N", "IOs (best branch)", "bound prod/(M^{k-1}B)", "ratio", "results"},
	}
	// Output size is n^k (every petal combination), so n shrinks with k and
	// is Scale-driven rather than M-driven; the bound scales the same way.
	for _, k := range []int{2, 3} {
		for _, mult := range []int{2, 4} {
			n := 64 * mult * p.Scale / (k - 1)
			petals := make([]int, k)
			bound := 1.0
			for i := range petals {
				petals[i] = n
				bound *= float64(n)
			}
			bound /= math.Pow(float64(p.M), float64(k-1)) * float64(p.B)
			bound += float64(k*n) / float64(p.B) // suppressed linear term
			d := ms.disk(p)
			g, in := workload.StarWorstCase(d, petals)
			r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategyFirst, AssumeReduced: true})
			if err != nil {
				return nil, err
			}
			res := r.Emitted
			wantRes := int64(1)
			for _, pn := range petals {
				wantRes *= int64(pn)
			}
			if res != wantRes {
				return nil, fmt.Errorf("E10: emitted %d, want %d", res, wantRes)
			}
			t.AddRow(k, n, r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), res)
		}
	}
	t.Notes = append(t.Notes,
		"the partial join on the petals has size prod N_i, so every algorithm needs >= prod/(M^{k-1}B) I/Os; ratios stay O(1)")
	return t, nil
}

func runE11(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E11: equal-size acyclic joins (Theorem 7 construction)",
		Header: []string{"query", "c (min cover)", "N", "IOs (best branch)", "bound (N/M)^c*M/B", "ratio"},
	}
	// The construction's output is N^c, so N shrinks with the cover number
	// to keep emission volume bounded. Per the Theorem 7 proof, equal sizes
	// need no nondeterminism, so a single deterministic branch suffices.
	// Output is N^c, so base sizes shrink with the cover number and are
	// Scale-driven rather than M-driven.
	queries := []struct {
		name string
		g    *hypergraph.Graph
		base int
	}{
		{"L3", hypergraph.Line(3), 256},
		{"L5", hypergraph.Line(5), 96},
		{"star3", hypergraph.StarQuery(3), 96},
	}
	for _, qc := range queries {
		c := len(cover.GreedyMinCover(qc.g))
		n := qc.base * p.Scale
		d := ms.disk(p)
		in, packing, err := workload.EqualSizePacking(d, qc.g, n)
		if err != nil {
			return nil, err
		}
		if len(packing) != c {
			return nil, fmt.Errorf("E11: packing %d != cover %d on %s", len(packing), c, qc.name)
		}
		bound := math.Pow(float64(n)/float64(p.M), float64(c))*float64(p.M)/float64(p.B) +
			float64(in.TotalSize(qc.g))/float64(p.B)
		r, err := core.Run(qc.g, in, nil, core.Options{Strategy: core.StrategyFirst, AssumeReduced: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(qc.name, c, n, r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound))
	}
	t.Notes = append(t.Notes,
		"c equals the max attribute packing (LP duality); the construction's join size is N^c",
		"Theorem 7's proof shows nondeterminism is unnecessary at equal sizes, so one deterministic branch is measured")
	return t, nil
}

func runE12(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E12: lollipop join, both size regimes (N0 vs Nn)",
		Header: []string{"regime", "IOs (best branch)", "bound 2^x (Thm 3)", "measured/bound", "results"},
	}
	n := 3
	g := hypergraph.Lollipop(n)
	// Domains: core attrs v0..v2, bridge attr v3, uniques after.
	for _, regime := range []string{"N0<=Nn", "N0>=Nn"} {
		dom := map[hypergraph.Attr]int{}
		for _, a := range g.Attrs() {
			dom[a] = 1
		}
		big := 64 * p.Scale // output is ~big^3 (three unique petal domains)
		if regime == "N0<=Nn" {
			// Small core: all join domains 1; fat petal uniques.
			for _, e := range g.Edges() {
				for _, a := range g.UniqueAttrs(e) {
					dom[a] = big
				}
			}
		} else {
			// Fat core: core attr v1, v2 sized so N0 = big; petals small.
			dom[1] = big / 2
			dom[2] = 2
			for _, e := range g.Edges() {
				for _, a := range g.UniqueAttrs(e) {
					dom[a] = 4
				}
			}
		}
		d := ms.disk(p)
		_, in, err := workload.LollipopCross(d, n, dom)
		if err != nil {
			return nil, err
		}
		szMap := cover.Sizes{}
		for _, e := range g.Edges() {
			szMap[e.ID] = float64(in[e.ID].Len())
		}
		boundLog, _, _, err := gens.BestBound(g, gens.Branches(g), szMap, p.M, p.B)
		if err != nil {
			return nil, err
		}
		lin := 0.0
		for _, s := range szMap {
			lin += s
		}
		bound := math.Pow(2, boundLog) + lin/float64(p.B)
		r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategyExhaustive, AssumeReduced: true, NoPrune: p.NoPrune})
		if err != nil {
			return nil, err
		}
		t.AddRow(regime, r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), r.Emitted)
	}
	t.Notes = append(t.Notes,
		"Section 7.2 peels the star with the larger core last; the exhaustive strategy finds that branch automatically")
	return t, nil
}

func runE13(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E13: dumbbell join across balance condition (7)",
		Header: []string{"balanced(7)", "IOs (best branch)", "bound 2^x (Thm 3)", "measured/bound", "results"},
	}
	g := hypergraph.Dumbbell(2, 4)
	for _, balanced := range []bool{true, false} {
		dom := map[hypergraph.Attr]int{}
		for _, a := range g.Attrs() {
			dom[a] = 1
		}
		big := 64 * p.Scale
		if balanced {
			// Fat petals, thin cores: N_i*N_j >= N0*Nm holds.
			for _, e := range g.Edges() {
				for _, a := range g.UniqueAttrs(e) {
					dom[a] = big
				}
			}
		} else {
			// Fat cores, thin petals: condition (7) broken. Cores 0 and m:
			// give their join attrs larger domains.
			core0 := g.Edge(0)
			dom[core0.Attrs[0]] = big / 2
			dom[core0.Attrs[1]] = 2
			corem := g.Edge(4)
			dom[corem.Attrs[0]] = big / 2
			dom[corem.Attrs[len(corem.Attrs)-1]] = 2
			for _, e := range g.Edges() {
				for _, a := range g.UniqueAttrs(e) {
					dom[a] = 2
				}
			}
		}
		d := ms.disk(p)
		_, in, err := workload.DumbbellCross(d, 2, 4, dom)
		if err != nil {
			return nil, err
		}
		szMap := cover.Sizes{}
		for _, e := range g.Edges() {
			szMap[e.ID] = float64(in[e.ID].Len())
		}
		boundLog, _, _, err := gens.BestBound(g, gens.Branches(g), szMap, p.M, p.B)
		if err != nil {
			return nil, err
		}
		lin := 0.0
		for _, s := range szMap {
			lin += s
		}
		bound := math.Pow(2, boundLog) + lin/float64(p.B)
		r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategyExhaustive, AssumeReduced: true, NoPrune: p.NoPrune})
		if err != nil {
			return nil, err
		}
		t.AddRow(balanced, r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), r.Emitted)
	}
	t.Notes = append(t.Notes,
		"under condition (7) Algorithm 2 is optimal (Section 7.3); when broken, the bound may be loose, mirroring the L5 situation")
	return t, nil
}
