package harness

import (
	"fmt"
	"math/rand"
	"sort"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/count"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// VerifySweep runs a randomized correctness sweep: random Berge-acyclic
// queries and instances, every strategy, the line dispatcher, and the
// ablation variant, all checked tuple-for-tuple against the enumeration
// oracle. It returns a summary table and an error on the first mismatch.
func VerifySweep(p Params, trials int) (*Table, error) {
	p = p.WithDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	scope := "all strategies"
	if p.Strategy != "" {
		scope = "strategy " + p.Strategy
	}
	t := &Table{
		Title:  fmt.Sprintf("verify: %d random instances per configuration, %s vs oracle", trials, scope),
		Header: []string{"configuration", "trials", "mismatches", "max |Q(R)|"},
	}
	configs := []struct {
		name string
		gen  func(r *rand.Rand) *hypergraph.Graph
	}{
		{"random acyclic 2-5 relations", func(r *rand.Rand) *hypergraph.Graph {
			return randomAcyclicGraph(r, 2+r.Intn(4))
		}},
		{"lines L2-L6", func(r *rand.Rand) *hypergraph.Graph {
			return hypergraph.Line(2 + r.Intn(5))
		}},
		{"stars 2-4 petals", func(r *rand.Rand) *hypergraph.Graph {
			return hypergraph.StarQuery(2 + r.Intn(3))
		}},
		{"lollipop/dumbbell", func(r *rand.Rand) *hypergraph.Graph {
			if r.Intn(2) == 0 {
				return hypergraph.Lollipop(2 + r.Intn(2))
			}
			return hypergraph.Dumbbell(2, 4+r.Intn(2))
		}},
	}
	for _, cfg := range configs {
		maxOut := int64(0)
		for trial := 0; trial < trials; trial++ {
			if err := verifyTrial(p, rng, cfg.name, trial, cfg.gen, &maxOut); err != nil {
				return nil, err
			}
		}
		t.AddRow(cfg.name, trials, 0, maxOut)
	}
	t.Notes = append(t.Notes, "a non-zero mismatch count aborts with an error; this table printing means every check passed")
	return t, nil
}

// verifyTrial runs one VerifySweep trial: a random instance of a graph from
// gen on a fresh disk, checked under every configuration against the oracle.
// It raises *maxOut to the oracle's result size and closes the disk's engine
// on every path.
func verifyTrial(p Params, rng *rand.Rand, name string, trial int, gen func(*rand.Rand) *hypergraph.Graph, maxOut *int64) (err error) {
	b := 2 + rng.Intn(3)
	m := b * (3 + rng.Intn(3)) // multiplier >= 3 keeps the merge fan-in valid
	d := newBackendDisk(p, extmem.Config{M: m, B: b})
	defer closeDisk(d, &err)
	g := gen(rng)
	in := randomVerifyInstance(d, rng, g, 5+rng.Intn(30), 2+rng.Intn(3))
	want, err := oracleSet(g, in)
	if err != nil {
		return err
	}
	*maxOut = max(*maxOut, int64(len(want)))
	// All strategies on the raw instance.
	sweep, variant, err := strategySweep(p)
	if err != nil {
		return err
	}
	for _, o := range sweep {
		got, err := runSet(g, in, p.options(o))
		if err != nil {
			return fmt.Errorf("%s trial %d strategy %v (noprune %v): %w", name, trial, o.Strategy, o.NoPrune, err)
		}
		if err := sameSet(got, want); err != nil {
			return fmt.Errorf("%s trial %d strategy %v (noprune %v) on %v: %w", name, trial, o.Strategy, o.NoPrune, g, err)
		}
	}
	// Ablation variant.
	got, err := runSet(g, in, p.options(core.Options{Strategy: variant, DisableHeavySplit: true}))
	if err != nil {
		return err
	}
	if err := sameSet(got, want); err != nil {
		return fmt.Errorf("%s trial %d no-split on %v: %w", name, trial, g, err)
	}
	// Reduced path + line dispatcher where applicable.
	red, err := reducer.FullReduce(g, in)
	if err != nil {
		return err
	}
	if _, isLine := g.AsLine(); isLine && g.NumEdges() >= 3 {
		var lines []string
		_, err := core.RunLine(g, red, func(a tuple.Assignment) {
			lines = append(lines, a.String())
		}, p.options(core.Options{Strategy: variant, AssumeReduced: true}))
		if err != nil {
			return err
		}
		sort.Strings(lines)
		if err := sameSet(lines, want); err != nil {
			return fmt.Errorf("%s trial %d dispatcher on %v: %w", name, trial, g, err)
		}
	}
	return nil
}

// strategySweep is the option matrix VerifySweep runs per trial, plus the
// strategy its ablation/dispatcher variants use. Empty Params.Strategy
// sweeps everything (variants on StrategySmallest, as always); a named
// strategy restricts the sweep and the variants to that strategy's arms,
// which is how CI re-runs the whole randomized suite under one planner
// (e.g. ACYCLICJOIN_STRATEGY=greedy) with no code changes.
func strategySweep(p Params) ([]core.Options, core.Strategy, error) {
	all := []core.Options{
		{Strategy: core.StrategyFirst},
		{Strategy: core.StrategySmallest},
		{Strategy: core.StrategyGreedy},
		{Strategy: core.StrategyExhaustive},
		{Strategy: core.StrategyExhaustive, NoPrune: true},
	}
	if p.Strategy == "" {
		return all, core.StrategySmallest, nil
	}
	var want core.Strategy
	switch p.Strategy {
	case "exhaustive":
		want = core.StrategyExhaustive
	case "first":
		want = core.StrategyFirst
	case "smallest":
		want = core.StrategySmallest
	case "greedy":
		want = core.StrategyGreedy
	default:
		return nil, 0, fmt.Errorf("harness: unknown strategy %q (want exhaustive, first, smallest, or greedy)", p.Strategy)
	}
	var out []core.Options
	for _, o := range all {
		if o.Strategy == want {
			out = append(out, o)
		}
	}
	return out, want, nil
}

func oracleSet(g *hypergraph.Graph, in relation.Instance) ([]string, error) {
	var out []string
	err := count.Enumerate(g, in, func(a tuple.Assignment) { out = append(out, a.String()) })
	sort.Strings(out)
	return out, err
}

func runSet(g *hypergraph.Graph, in relation.Instance, opts core.Options) ([]string, error) {
	var out []string
	_, err := core.Run(g, in, func(a tuple.Assignment) { out = append(out, a.String()) }, opts)
	sort.Strings(out)
	return out, err
}

func sameSet(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("result %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

func randomVerifyInstance(d *extmem.Disk, rng *rand.Rand, g *hypergraph.Graph, rows, domain int) relation.Instance {
	in := relation.Instance{}
	for _, e := range g.Edges() {
		schema := make(tuple.Schema, len(e.Attrs))
		copy(schema, e.Attrs)
		seen := map[string]bool{}
		var rs []tuple.Tuple
		for k := 0; k < rows; k++ {
			t := make(tuple.Tuple, len(schema))
			for j := range t {
				t[j] = int64(rng.Intn(domain))
			}
			key := fmt.Sprint(t)
			if !seen[key] {
				seen[key] = true
				rs = append(rs, t)
			}
		}
		in[e.ID] = relation.FromTuples(d, schema, rs)
	}
	return in
}
