package core

import (
	"math/rand"
	"sort"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// greedyBuilders is the workload matrix for the greedy differential tests:
// every shape the executor exercises (lines, stars, lollipop, dumbbell),
// uniform and skewed, small enough to run the exhaustive oracle alongside.
var greedyBuilders = []struct {
	name  string
	build builder
}{
	{"line3-uniform", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(31))
		return workload.LineUniform(d, rng, 3, 120, 12)
	}},
	{"line4-uniform", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(32))
		return workload.LineUniform(d, rng, 4, 90, 9)
	}},
	{"line5-skewed", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(33))
		g := hypergraph.Line(5)
		in := relation.Instance{}
		for i, e := range g.Edges() {
			in[e.ID] = workload.ZipfPairs(d, rng, e.Attrs[0], e.Attrs[1], 8, 8, 60+10*i, 1.2)
		}
		return g, in
	}},
	{"star3-random", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(34))
		g := hypergraph.StarQuery(3)
		return g, randCoreInstance(d, rng, g, 40, 6)
	}},
	{"lollipop-random", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(35))
		g := hypergraph.Lollipop(3)
		return g, randCoreInstance(d, rng, g, 30, 5)
	}},
	{"dumbbell-random", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(36))
		g := hypergraph.Dumbbell(2, 4)
		return g, randCoreInstance(d, rng, g, 25, 4)
	}},
}

// TestGreedyMatchesExhaustive is the greedy strategy's correctness contract:
// on every workload shape the greedy plan emits exactly the rows the
// exhaustive winner emits (as a set — the branch may differ, so order may
// too), with single-branch telemetry, no chooser clamps, and probe
// accounting that ties out: TotalStats minus ExecStats equals the sum of the
// recorded per-decision probe charges, and is strictly below the exhaustive
// strategy's planning overhead whenever the oracle had more than one branch
// to explore.
func TestGreedyMatchesExhaustive(t *testing.T) {
	for _, c := range greedyBuilders {
		c := c
		t.Run(c.name, func(t *testing.T) {
			gr, grRows, _, err := engineRunOpts(c.build, Options{Strategy: StrategyGreedy})
			if err != nil {
				t.Fatalf("greedy: %v", err)
			}
			ex, exRows, _, err := engineRunOpts(c.build, Options{Strategy: StrategyExhaustive})
			if err != nil {
				t.Fatalf("exhaustive: %v", err)
			}
			sort.Strings(grRows)
			sort.Strings(exRows)
			eqStrings(t, grRows, exRows, c.name)
			if gr.Emitted != ex.Emitted {
				t.Fatalf("emitted %d, exhaustive %d", gr.Emitted, ex.Emitted)
			}
			if gr.Branches != 1 {
				t.Fatalf("greedy explored %d branches, want 1", gr.Branches)
			}
			if gr.ClampedChoices != 0 {
				t.Fatalf("chooser clamp fired %d times", gr.ClampedChoices)
			}
			var probes extmem.Stats
			for _, d := range gr.Greedy {
				probes = probes.Add(d.ProbeStats)
			}
			if gr.TotalStats.Reads-gr.ExecStats.Reads != probes.Reads ||
				gr.TotalStats.Writes-gr.ExecStats.Writes != probes.Writes {
				t.Fatalf("probe accounting off: total %+v, exec %+v, recorded probes %+v",
					gr.TotalStats, gr.ExecStats, probes)
			}
			if ex.Branches > 1 {
				planG := gr.TotalStats.IOs() - gr.ExecStats.IOs()
				planE := ex.TotalStats.IOs() - ex.ExecStats.IOs()
				if planG >= planE {
					t.Fatalf("greedy planning %d I/Os not below exhaustive %d (branches %d)",
						planG, planE, ex.Branches)
				}
				if len(gr.Greedy) == 0 || planG == 0 {
					t.Fatalf("multi-branch workload probed nothing: %d decisions, %d planning I/Os",
						len(gr.Greedy), planG)
				}
			}
			// When greedy lands on the oracle's winning policy, the execution
			// must be the exact same run: identical stats, identical order.
			if policiesEqual(gr.Policy, ex.Policy) {
				if gr.ExecStats != ex.ExecStats {
					t.Fatalf("same policy, different exec: %+v vs %+v", gr.ExecStats, ex.ExecStats)
				}
			}
		})
	}
}

func policiesEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestGreedyTraceMemoized: each structure key is scored at most once — the
// trace carries no duplicate keys, every traced key appears in the returned
// policy, and the chosen index matches the policy's entry.
func TestGreedyTraceMemoized(t *testing.T) {
	build := func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		rng := rand.New(rand.NewSource(40))
		return workload.LineUniform(d, rng, 5, 60, 8)
	}
	r, _, _, err := engineRunOpts(build, Options{Strategy: StrategyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Greedy) == 0 {
		t.Fatal("L5 greedy run recorded no decisions")
	}
	seen := map[string]bool{}
	for _, d := range r.Greedy {
		if seen[d.Key] {
			t.Fatalf("structure %q scored twice", d.Key)
		}
		seen[d.Key] = true
		if got, ok := r.Policy[d.Key]; !ok || got != d.Chosen {
			t.Fatalf("decision for %q (chose %d) not in policy (%v)", d.Key, d.Chosen, r.Policy)
		}
		if d.Chosen < 0 || d.Chosen >= len(d.Candidates) {
			t.Fatalf("chosen %d out of range of %d candidates", d.Chosen, len(d.Candidates))
		}
		if len(d.Candidates) < 2 {
			t.Fatalf("traced a %d-candidate decision; single leaves must not probe", len(d.Candidates))
		}
		if d.Rationale() == "" {
			t.Fatal("empty rationale")
		}
	}
}

// TestBranchFree pins the structural single-branch detector: it must say yes
// exactly when every reachable decision point has at most one peelable leaf
// (so the exhaustive odometer would enumerate a single policy).
func TestBranchFree(t *testing.T) {
	single := hypergraph.MustNew([]*hypergraph.Edge{{ID: 0, Name: "R", Attrs: []int{0, 1}}})
	islands := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "A", Attrs: []int{0, 1}},
		{ID: 1, Name: "B", Attrs: []int{5, 6}},
	})
	budTwoLeaves := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "Bud", Attrs: []int{0}},
		{ID: 1, Name: "L1", Attrs: []int{0, 1}},
		{ID: 2, Name: "L2", Attrs: []int{0, 2}},
	})
	cases := []struct {
		name string
		g    *hypergraph.Graph
		want bool
	}{
		{"single edge", single, true},
		{"two islands", islands, true},
		{"line2", hypergraph.Line(2), false},
		{"line3", hypergraph.Line(3), false},
		{"star2", hypergraph.StarQuery(2), false},
		{"bud over two leaves", budTwoLeaves, false},
	}
	for _, c := range cases {
		if got := branchFree(newStepTable().of(c.g), false); got != c.want {
			t.Errorf("branchFree(%s) = %v, want %v", c.name, got, c.want)
		}
		if got := branchFree(newStepTable().of(c.g), true); got != c.want {
			t.Errorf("branchFree(%s, no split) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestExhaustiveSingleBranchShortCircuit: on a branch-free query the
// exhaustive strategy must skip the dry/wet split entirely — one branch, no
// planning overhead (TotalStats == ExecStats), telemetry reporting the one
// completed branch — while emitting exactly what the odometer path (or any
// strategy) would.
func TestExhaustiveSingleBranchShortCircuit(t *testing.T) {
	build := func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		g := hypergraph.MustNew([]*hypergraph.Edge{
			{ID: 0, Name: "A", Attrs: []int{0, 1}},
			{ID: 1, Name: "B", Attrs: []int{5, 6}},
		})
		in := relation.Instance{
			0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}, {3, 4}}),
			1: relation.FromTuples(d, tuple.Schema{5, 6}, []tuple.Tuple{{7, 8}, {9, 10}, {11, 12}}),
		}
		return g, in
	}
	ex, exRows, _, err := engineRunOpts(build, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Branches != 1 {
		t.Fatalf("branches = %d, want 1", ex.Branches)
	}
	if ex.TotalStats != ex.ExecStats {
		t.Fatalf("short-circuited run still paid planning: total %+v, exec %+v",
			ex.TotalStats, ex.ExecStats)
	}
	if ex.Prune != (PruneStats{Started: 1, Completed: 1}) {
		t.Fatalf("prune telemetry = %+v, want one started+completed branch", ex.Prune)
	}
	// Policy stays empty here: islands are cross-producted without ever
	// consulting a chooser, which is exactly why the workload is branch-free.
	if len(ex.Policy) != 0 {
		t.Fatalf("island-only run recorded policy %v", ex.Policy)
	}
	// The sole branch must be the same run every other strategy performs.
	first, firstRows, _, err := engineRunOpts(build, Options{Strategy: StrategyFirst})
	if err != nil {
		t.Fatal(err)
	}
	eqStrings(t, exRows, firstRows, "short-circuit vs first")
	if ex.ExecStats != first.ExecStats || ex.Emitted != first.Emitted {
		t.Fatalf("exec diverges from StrategyFirst: %+v/%d vs %+v/%d",
			ex.ExecStats, ex.Emitted, first.ExecStats, first.Emitted)
	}
}
