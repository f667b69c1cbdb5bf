package harness

import (
	"fmt"
	"math"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/gens"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E5",
		Artifact: "Sections 4.1-4.2 (L4 peeling strategies)",
		Title:    "L4 crossover: best branch tracks min(N1N2N4, N1N3N4)/(M^2 B)",
		Run:      runE5,
	})
	Register(&Experiment{
		ID:       "E6",
		Artifact: "Section 4.2, Corollary 2, Theorem 5",
		Title:    "Balanced L5: Algorithm 2 vs the GenS/Theorem 3 bound",
		Run:      runE6,
	})
	Register(&Experiment{
		ID:       "E7",
		Artifact: "Section 6.3 n=5, Algorithm 4",
		Title:    "Unbalanced L5: Algorithm 4 vs forcing Algorithm 2",
		Run:      runE7,
	})
	Register(&Experiment{
		ID:       "E8",
		Artifact: "Section 6.3 n=7, Algorithm 5",
		Title:    "Unbalanced L7: Algorithm 5 vs forcing Algorithm 2",
		Run:      runE8,
	})
	Register(&Experiment{
		ID:       "E9",
		Artifact: "Section 6.3 n=6 and n=8",
		Title:    "L6/L8 composite plans: dispatcher routing and costs",
		Run:      runE9,
	})
	Register(&Experiment{
		ID:       "E17",
		Artifact: "Section 6.1 (optimal line covers)",
		Title:    "Optimal line covers: rules (1)-(4) and alternating intervals",
		Run:      runE17,
	})
}

// sizesOf extracts path-ordered sizes.
func sizesOf(g *hypergraph.Graph, in relation.Instance) []float64 {
	order, _ := g.AsLine()
	out := make([]float64, len(order))
	for i, e := range order {
		out[i] = float64(in[e.ID].Len())
	}
	return out
}

// theorem3Bound returns Theorem 3's worst-case I/O bound for g on in's
// relation sizes, min over GenS branches of max_S Ψ_wc(S), in log2, and the
// linear term ΣN/B that the bound's O(·) suppresses.
func theorem3Bound(g *hypergraph.Graph, in relation.Instance, m, b int) (log2, linear float64, err error) {
	sizes := cover.Sizes{}
	for _, e := range g.Edges() {
		sizes[e.ID] = float64(in[e.ID].Len())
		linear += sizes[e.ID]
	}
	fams, err := gens.Branches(g)
	if err != nil {
		return 0, 0, err
	}
	log2, _, _, err = gens.BestBound(g, fams, sizes, m, b)
	return log2, linear / float64(b), err
}

func runE5(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	// A small machine keeps every relation size >= M (the model's standing
	// assumption) at test-friendly data volumes.
	mp := Params{M: 16, B: 4, Scale: p.Scale, Seed: p.Seed}
	t := &Table{
		Title:  "E5: L4 crossover as N2/N3 varies (N1=N4 fixed, M=16, B=4)",
		Header: []string{"N2", "N3", "best-branch IOs", "min-formula", "ratio", "worse-formula"},
	}
	// Cross-product construction: domains (n/a, a, b, c, n/c) give
	// N1 = N4 = n, N2 = a·b, N3 = b·c; sweeping a vs c flips which of the
	// two peeling formulas is smaller. Output is n²·b/(n...) = Πz = n·b·n.
	n := 512 * p.Scale
	const b = 2
	for _, ac := range [][2]int{{16, 256}, {64, 64}, {256, 16}} {
		a, c := ac[0]*p.Scale, ac[1]*p.Scale
		zs := []int{n / a, a, b, c, n / c}
		d := ms.disk(mp)
		g, in, szs, err := workload.LineCross(d, zs, -1)
		if err != nil {
			return nil, err
		}
		mm := float64(mp.M)
		lin := 0.0
		for _, s := range szs {
			lin += s
		}
		lin /= float64(mp.B)
		f1 := lin + szs[0]*szs[1]*szs[3]/(mm*mm*float64(mp.B))
		f2 := lin + szs[0]*szs[2]*szs[3]/(mm*mm*float64(mp.B))
		bound := math.Min(f1, f2)
		r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategyExhaustive, AssumeReduced: true, NoPrune: p.NoPrune})
		if err != nil {
			return nil, err
		}
		t.AddRow(int(szs[1]), int(szs[2]), r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), math.Max(f1, f2))
	}
	t.Notes = append(t.Notes,
		"the exhaustive strategy's cost follows the SMALLER of the two peeling formulas on both sides of the crossover",
		"formulas include the suppressed linear term ΣN/B")
	return t, nil
}

func runE6(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E6: balanced L5 (Theorem 5 construction) vs the Theorem 3 bound",
		Header: []string{"sizes", "IOs", "bound", "measured/bound", "results"},
	}
	// The cross-product output is z^6 ≈ N^3, so sizes stay moderate; at
	// equal sizes every alternating-peel branch is symmetric, making the
	// deterministic greedy branch representative.
	for _, mult := range []int{1, 2} {
		// Scale-driven size: the cross-product output is ~n³.
		n := float64(64 * mult * p.Scale)
		zs, err := workload.BalancedLineDomains([]float64{n, n, n, n, n})
		if err != nil {
			return nil, err
		}
		d := ms.disk(p)
		g, in, sizes, err := workload.LineBalancedWorstCase(d, zs)
		if err != nil {
			return nil, err
		}
		boundLog, lin, err := theorem3Bound(g, in, p.M, p.B)
		if err != nil {
			return nil, err
		}
		bound := math.Pow(2, boundLog) + lin
		r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f each", sizes[0]), r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), r.Emitted)
	}
	// Theorem 6: even line via the z_{k+1}=1 split construction. An L6
	// split at k=3 gets domains (8,8,8,1,8,8,8): two balanced L3 halves
	// welded at a single-valued attribute.
	{
		z := 8 * p.Scale
		zs := []int{z, z, z, 1, z, z, z}
		d := ms.disk(p)
		g, in, _, err := workload.LineBalancedWorstCase(d, zs)
		if err != nil {
			return nil, err
		}
		boundLog, lin, err := theorem3Bound(g, in, p.M, p.B)
		if err != nil {
			return nil, err
		}
		bound := math.Pow(2, boundLog) + lin
		r, err := core.Run(g, in, nil, core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
		if err != nil {
			return nil, err
		}
		t.AddRow("L6 split (Thm 6)", r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), r.Emitted)
	}
	t.Notes = append(t.Notes,
		"bound = min over GenS branches of max_S Psi_wc(S) (Theorem 3) plus the suppressed linear term ΣN/B, on realized sizes",
		"the L6 row uses the Theorem 6 construction: an even line split into two balanced halves at a single-valued attribute")
	return t, nil
}

func runE7(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E7: unbalanced L5 (N1N3N5 < N2N4): Algorithm 4 vs Algorithm 2",
		Header: []string{"sizes N1..N5", "alg", "IOs", "optimal bound", "ratio", "results"},
	}
	// Section 6.3 lower-bound family: cross products everywhere except the
	// middle relation, which is a bijective mapping between big domains —
	// so N2, N4 are big cross products while N1·N3·N5 stays small. A small
	// machine (M=16) keeps every size >= M. Output is z1·z2·t·z5·z6.
	mp := Params{M: 16, B: 4, Scale: p.Scale, Seed: p.Seed}
	tt := 64 * p.Scale
	zs := []int{4, 8, tt, tt, 8, 4}
	build := func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance, []float64, error) {
		return workload.LineCross(d, zs, 2)
	}
	d := ms.disk(mp)
	g, in, sizes, err := build(d)
	if err != nil {
		return nil, err
	}
	if cover.IsBalancedOddLine(sizes) {
		return nil, fmt.Errorf("E7: instance unexpectedly balanced: %v", sizes)
	}
	// Algorithm 2's own worst-case bound for these sizes (Theorem 3) is
	// dominated by N2·N4-type terms and is strictly larger.
	alg2BoundLog, lin, err := theorem3Bound(g, in, mp.M, mp.B)
	if err != nil {
		return nil, err
	}
	// Optimal unbalanced bound (Section 6.3): N1N3N5/(M² B) + ΣN/B.
	bound := sizes[0]*sizes[2]*sizes[4]/(float64(mp.M)*float64(mp.M)*float64(mp.B)) + lin
	label := fmt.Sprintf("%.0f,%.0f,%.0f,%.0f,%.0f", sizes[0], sizes[1], sizes[2], sizes[3], sizes[4])

	var res4 int64
	st, err := measure(d, func() error { return core.Line5Unbalanced(g, in, countEmit(&res4)) })
	if err != nil {
		return nil, err
	}
	t.AddRow(label, "Algorithm 4", st.IOs(), bound, Ratio(st.IOs(), bound), res4)

	d2 := ms.disk(mp)
	g2, in2, _, err := build(d2)
	if err != nil {
		return nil, err
	}
	r, err := core.Run(g2, in2, nil, core.Options{Strategy: core.StrategyExhaustive, AssumeReduced: true, NoPrune: p.NoPrune})
	if err != nil {
		return nil, err
	}
	res2 := r.Emitted
	if res2 != res4 {
		return nil, fmt.Errorf("E7: result mismatch %d vs %d", res2, res4)
	}
	t.AddRow(label, "Algorithm 2 (best branch)", r.ExecStats.IOs(), bound, Ratio(r.ExecStats.IOs(), bound), res2)
	t.Notes = append(t.Notes,
		fmt.Sprintf("Algorithm 2's own Theorem-3 bound for these sizes is 2^%.1f = %.3g I/Os, dominated by the N2·N4 term — the unbalanced optimum above is smaller",
			alg2BoundLog, math.Pow(2, alg2BoundLog)),
		"optimal bound = N1N3N5/(M²B) + ΣN/B (Section 6.3)")
	return t, nil
}

func runE8(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E8: unbalanced L7: Algorithm 5 vs Algorithm 2 (M=16, B=4)",
		Header: []string{"alg", "IOs", "Thm-3 bound (Alg 2)", "results"},
	}
	// Section 6.3 / A.3 case (ii): conditions (a) and (b) broken. Domains
	// (4, 8, t, t, 8, 4, 4, 4) with R3 a bijective mapping give
	// N = (32, 8t, t, 8t, 32, 16, 16): N1*N3*N5 = 1024t < N2*N4 = 64t^2
	// for t > 16. Every size stays >= M on the small machine.
	mp := Params{M: 16, B: 4, Scale: p.Scale, Seed: p.Seed}
	tt := 64 * p.Scale
	zs := []int{4, 8, tt, tt, 8, 4, 4, 4}
	d := ms.disk(mp)
	g, in, sizes, err := workload.LineCross(d, zs, 2)
	if err != nil {
		return nil, err
	}
	if cover.IsBalancedOddLine(sizes[:5]) {
		return nil, fmt.Errorf("E8: prefix unexpectedly balanced: %v", sizes)
	}
	alg2BoundLog, _, err := theorem3Bound(g, in, mp.M, mp.B)
	if err != nil {
		return nil, err
	}
	alg2Bound := math.Pow(2, alg2BoundLog)

	var res5 int64
	st, err := measure(d, func() error {
		return core.Line7Unbalanced(g, in, countEmit(&res5), core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("Algorithm 5", st.IOs(), alg2Bound, res5)

	d2 := ms.disk(mp)
	g2, in2, _, err := workload.LineCross(d2, zs, 2)
	if err != nil {
		return nil, err
	}
	// One greedy branch: the exhaustive planner would replay the ~1M-result
	// output once per branch, which this comparison does not need.
	r, err := core.Run(g2, in2, nil, core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
	if err != nil {
		return nil, err
	}
	res2 := r.Emitted
	if res2 != res5 {
		return nil, fmt.Errorf("E8: result mismatch %d vs %d", res2, res5)
	}
	t.AddRow("Algorithm 2 (greedy branch)", r.ExecStats.IOs(), alg2Bound, res2)
	t.Notes = append(t.Notes,
		"with conditions (a),(b) broken, Algorithm 5 (materialize the middle L3, then AcyclicJoin) achieves the smaller unbalanced optimum",
		"the Thm-3 column is Algorithm 2's own worst-case bound for these sizes, dominated by the N2*N4 term")
	return t, nil
}

func runE9(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E9: dispatcher routing on L6 and L8 (M=16, B=4 for unbalanced cases)",
		Header: []string{"case", "sizes", "plan", "IOs", "results"},
	}
	// Balanced uniform instances: Theorem 6 splits exist, Algorithm 2 runs.
	rng := rand.New(rand.NewSource(p.Seed + 9))
	for _, n := range []int{6, 8} {
		d := ms.disk(p)
		g, in := workload.LineUniform(d, rng, n, p.M*2*p.Scale, p.M/2*p.Scale+4)
		red, err := reducer.FullReduce(g, in)
		if err != nil {
			return nil, err
		}
		var r *core.Result
		st, err := measure(d, func() error {
			var err error
			r, err = core.RunLine(g, red, nil, core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("L%d uniform", n), fmt.Sprint(sizesOf(g, red)), r.Line.Kind.String(), st.IOs(), r.Emitted)
		if r.Line.Kind != core.PlanAcyclic {
			return nil, fmt.Errorf("E9: uniform L%d routed to %v", n, r.Line.Kind)
		}
	}
	// Unbalanced composites: the Section 6.3 cross/mapping family extended
	// to even lengths. No cost-optimal balanced split exists, so the
	// dispatcher must chunk an end relation over the inner plan.
	mp := Params{M: 16, B: 4, Scale: p.Scale, Seed: p.Seed}
	tt := 64 * p.Scale
	for _, c := range []struct {
		name string
		zs   []int
	}{
		{"L6 unbalanced", []int{4, 8, tt, tt, 8, 4, 4}},
		{"L8 unbalanced", []int{4, 8, tt, tt, 8, 4, 4, 4, 4}},
	} {
		d := ms.disk(mp)
		g, in, sizes, err := workload.LineCross(d, c.zs, 2)
		if err != nil {
			return nil, err
		}
		var r *core.Result
		st, err := measure(d, func() error {
			var err error
			r, err = core.RunLine(g, in, nil, core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, fmt.Sprint(sizes), r.Line.Kind.String(), st.IOs(), r.Emitted)
		if r.Line.Kind != core.PlanChunkedComposite {
			return nil, fmt.Errorf("E9: %s routed to %v, want chunked composite", c.name, r.Line.Kind)
		}
	}
	t.Notes = append(t.Notes,
		"balanced-splittable even lines run Algorithm 2 (Theorem 6); unbalanced ones chunk an end relation over the inner Algorithm 4/5 plan (Section 6.3)")
	return t, nil
}

func runE17(p Params) (*Table, error) {
	p = p.WithDefaults()
	rng := rand.New(rand.NewSource(p.Seed + 17))
	t := &Table{
		Title:  "E17: optimal line covers on random sizes (Section 6.1)",
		Header: []string{"n", "trials", "rule1-2 ok", "LP==DP", "alternating intervals (mean)"},
	}
	for _, n := range []int{3, 5, 7, 9} {
		trials := 40
		okRules, okLP := 0, 0
		intervals := 0
		for tr := 0; tr < trials; tr++ {
			sizes := make([]float64, n)
			szMap := cover.Sizes{}
			for i := range sizes {
				sizes[i] = float64(int(2) << rng.Intn(10))
				szMap[i] = sizes[i]
			}
			x, logv, err := cover.LineCover(sizes)
			if err != nil {
				return nil, err
			}
			if x[0] == 1 && x[n-1] == 1 {
				two := true
				for i := 0; i+1 < n; i++ {
					if x[i] == 0 && x[i+1] == 0 {
						two = false
					}
				}
				if two {
					okRules++
				}
			}
			g := hypergraph.Line(n)
			_, lpObj, err := cover.Fractional(g, szMap)
			if err != nil {
				return nil, err
			}
			if math.Abs(lpObj-logv) < 1e-6 {
				okLP++
			}
			intervals += len(cover.AlternatingIntervals(x))
		}
		t.AddRow(n, trials, okRules, okLP, float64(intervals)/float64(trials))
	}
	t.Notes = append(t.Notes,
		"rules 3-4 of Section 6.1 additionally require fully reduced size relations, so only rules 1-2 are checked unconditionally",
		"LP==DP confirms Lemma 2 (integral optimal covers) on every trial")
	return t, nil
}
