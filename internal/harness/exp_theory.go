package harness

import (
	"fmt"
	"math"
	"math/rand"

	"acyclicjoin/internal/baseline"
	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E16",
		Artifact: "Lemma 2; Algorithm 6",
		Title:    "Cover integrality on random acyclic queries; greedy == exact",
		Run:      runE16,
	})
	Register(&Experiment{
		ID:       "E18",
		Artifact: "Table 1, internal-memory column",
		Title:    "Internal memory: Generic Join ops vs the AGM bound",
		Run:      runE18,
	})
}

func randomAcyclicGraph(rng *rand.Rand, nEdges int) *hypergraph.Graph {
	attr := 0
	edges := make([]*hypergraph.Edge, nEdges)
	for i := 0; i < nEdges; i++ {
		edges[i] = &hypergraph.Edge{ID: i, Name: fmt.Sprintf("R%d", i)}
	}
	for i := 1; i < nEdges; i++ {
		par := rng.Intn(i)
		edges[i].Attrs = append(edges[i].Attrs, attr)
		edges[par].Attrs = append(edges[par].Attrs, attr)
		attr++
	}
	for i := 0; i < nEdges; i++ {
		for k := rng.Intn(3); k > 0; k-- {
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

func runE16(p Params) (*Table, error) {
	p = p.WithDefaults()
	rng := rand.New(rand.NewSource(p.Seed + 16))
	t := &Table{
		Title:  "E16: Lemma 2 (integral covers) and Algorithm 6 minimality",
		Header: []string{"edges", "trials", "integral LP covers", "greedy == exact"},
	}
	for _, nEdges := range []int{2, 4, 6, 8} {
		trials := 50
		integral, greedyOK := 0, 0
		for tr := 0; tr < trials; tr++ {
			g := randomAcyclicGraph(rng, nEdges)
			sizes := cover.Sizes{}
			for _, e := range g.Edges() {
				sizes[e.ID] = float64(1 + rng.Intn(100000))
			}
			x, _, err := cover.Fractional(g, sizes)
			if err != nil {
				return nil, err
			}
			if cover.IsIntegral(x) {
				integral++
			}
			if len(cover.GreedyMinCover(g)) == len(cover.ExactMinCover(g)) {
				greedyOK++
			}
		}
		t.AddRow(nEdges, trials, integral, greedyOK)
	}
	t.Notes = append(t.Notes, "both columns must equal the trial count: Lemma 2 and Algorithm 6 hold on every random acyclic query")
	return t, nil
}

func runE18(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E18: internal-memory worst-case optimal join (Table 1 internal column)",
		Header: []string{"query", "N", "GenericJoin ops", "AGM bound", "ops/AGM", "results"},
	}
	// L3 worst case: AGM = N1*N3.
	{
		n := p.M * 2 * p.Scale
		d := ms.disk(p)
		g, in := workload.Line3WorstCase(d, n, n)
		var res int64
		ops, err := baseline.GenericJoin(g, in, countEmit(&res))
		if err != nil {
			return nil, err
		}
		agm := float64(n) * float64(n)
		t.AddRow("L3 worst", n, ops, agm, Ratio(ops, agm), res)
	}
	// Triangle: AGM = N^{3/2}.
	{
		n := p.M * 4 * p.Scale
		dom := int(2 * math.Sqrt(float64(n)))
		d := ms.disk(p)
		rng := rand.New(rand.NewSource(p.Seed + 18))
		g := hypergraph.MustNew([]*hypergraph.Edge{
			{ID: 0, Name: "R12", Attrs: []int{0, 1}},
			{ID: 1, Name: "R13", Attrs: []int{0, 2}},
			{ID: 2, Name: "R23", Attrs: []int{1, 2}},
		})
		in := relation.Instance{
			0: workload.UniformPairs(d, rng, 0, 1, dom, dom, n),
			1: workload.UniformPairs(d, rng, 0, 2, dom, dom, n),
			2: workload.UniformPairs(d, rng, 1, 2, dom, dom, n),
		}
		var res int64
		ops, err := baseline.GenericJoin(g, in, countEmit(&res))
		if err != nil {
			return nil, err
		}
		agm := math.Pow(float64(n), 1.5)
		t.AddRow("triangle", n, ops, agm, Ratio(ops, agm), res)
	}
	// Star worst case: AGM = prod petals.
	{
		n := p.M * 2 * p.Scale
		d := ms.disk(p)
		g, in := workload.StarWorstCase(d, []int{n, n})
		var res int64
		ops, err := baseline.GenericJoin(g, in, countEmit(&res))
		if err != nil {
			return nil, err
		}
		agm := float64(n) * float64(n)
		t.AddRow("star2 worst", n, ops, agm, Ratio(ops, agm), res)
	}
	// Internal Yannakakis on the L3 worst case: O(N + |Q(R)|) ops.
	{
		n := p.M * p.Scale
		d := ms.disk(p)
		g, in := workload.Line3WorstCase(d, n, n)
		var res int64
		ops, err := baseline.YannakakisInternal(g, in, countEmit(&res))
		if err != nil {
			return nil, err
		}
		linOut := float64(3*n) + float64(n)*float64(n)
		t.AddRow("L3 worst (Yannakakis)", n, ops, linOut, Ratio(ops, float64(linOut)), res)
	}
	t.Notes = append(t.Notes,
		"ops/AGM stays O(1): both internal algorithms are worst-case optimal in memory, motivating the external-memory question",
	)
	return t, nil
}
