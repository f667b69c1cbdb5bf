// External test package on purpose: the GenericJoin baseline imports core
// (its Yannakakis variant runs on the same executor), so the greedy-vs-
// baseline differential cannot live inside package core without an import
// cycle. Everything here goes through the public core API only.
package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"acyclicjoin/internal/baseline"
	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// fuzzInstance mirrors randCoreInstance from the in-package tests: small
// random tuples, deduplicated, deterministic in the fuzz inputs.
func fuzzInstance(d *extmem.Disk, rng *rand.Rand, g *hypergraph.Graph, rows, dom int) relation.Instance {
	in := relation.Instance{}
	for _, e := range g.Edges() {
		schema := make(tuple.Schema, len(e.Attrs))
		copy(schema, e.Attrs)
		seen := map[string]bool{}
		var rs []tuple.Tuple
		for k := 0; k < rows; k++ {
			t := make(tuple.Tuple, len(schema))
			for j := range t {
				t[j] = int64(rng.Intn(dom))
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

// fuzzRun evaluates the fuzz-chosen instance under opts on a fresh disk that
// carries an operator memo when memo is set.
func fuzzRun(shape, size, rows, dom uint8, memo bool, opts core.Options) (*core.Result, []string, error) {
	var g *hypergraph.Graph
	switch shape % 4 {
	case 0:
		g = hypergraph.Line(2 + int(size)%4)
	case 1:
		g = hypergraph.StarQuery(2 + int(size)%3)
	case 2:
		g = hypergraph.Lollipop(2 + int(size)%2)
	case 3:
		g = hypergraph.Dumbbell(2, 4+int(size)%2)
	}
	d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
	if memo {
		opcache.Enable(d)
	}
	rng := rand.New(rand.NewSource(int64(shape)<<24 | int64(size)<<16 | int64(rows)<<8 | int64(dom)))
	in := fuzzInstance(d, rng, g, 5+int(rows)%28, 2+int(dom)%3)
	var emitted []string
	r, err := core.Run(g, in, func(a tuple.Assignment) {
		emitted = append(emitted, a.String())
	}, opts)
	return r, emitted, err
}

// FuzzGreedyOracle is the differential oracle for the greedy planner: a
// fuzz-chosen acyclic query, instance, and memo mode evaluated under
// StrategyGreedy must produce exactly the result set of (a) the independent
// in-memory GenericJoin baseline and (b) the exhaustive strategy — compared
// as sorted sets, since the greedy branch may legitimately emit in a
// different order than the oracle's winner. Greedy telemetry must stay
// internally consistent on every input: one branch, no chooser clamps, and
// probe charges that tie out against the recorded decision trace.
func FuzzGreedyOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(25), uint8(2), uint8(1))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, shape, size, rows, dom, memoOff uint8) {
		memo := memoOff%2 == 0
		gr, grRows, grErr := fuzzRun(shape, size, rows, dom, memo, core.Options{Strategy: core.StrategyGreedy})
		ex, exRows, exErr := fuzzRun(shape, size, rows, dom, memo, core.Options{Strategy: core.StrategyExhaustive})
		if (grErr == nil) != (exErr == nil) {
			t.Fatalf("errors diverge: greedy %v, exhaustive %v", grErr, exErr)
		}
		if grErr != nil {
			if grErr.Error() != exErr.Error() {
				t.Fatalf("error text diverges: %q vs %q", grErr, exErr)
			}
			return
		}
		// Independent in-memory oracle on its own disk and an identical
		// (seed-determined) instance.
		var g *hypergraph.Graph
		switch shape % 4 {
		case 0:
			g = hypergraph.Line(2 + int(size)%4)
		case 1:
			g = hypergraph.StarQuery(2 + int(size)%3)
		case 2:
			g = hypergraph.Lollipop(2 + int(size)%2)
		case 3:
			g = hypergraph.Dumbbell(2, 4+int(size)%2)
		}
		d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
		rng := rand.New(rand.NewSource(int64(shape)<<24 | int64(size)<<16 | int64(rows)<<8 | int64(dom)))
		in := fuzzInstance(d, rng, g, 5+int(rows)%28, 2+int(dom)%3)
		var want []string
		if _, err := baseline.GenericJoin(g, in, func(a tuple.Assignment) {
			want = append(want, a.String())
		}); err != nil {
			t.Fatalf("baseline oracle: %v", err)
		}
		sort.Strings(want)
		sort.Strings(grRows)
		sort.Strings(exRows)
		if !reflect.DeepEqual(grRows, want) {
			t.Fatalf("greedy rows diverge from baseline: %d vs %d", len(grRows), len(want))
		}
		if !reflect.DeepEqual(grRows, exRows) {
			t.Fatalf("greedy rows diverge from exhaustive: %d vs %d", len(grRows), len(exRows))
		}
		if gr.Emitted != ex.Emitted {
			t.Fatalf("emitted counts diverge: greedy %d, exhaustive %d", gr.Emitted, ex.Emitted)
		}
		if gr.Branches != 1 || gr.ClampedChoices != 0 {
			t.Fatalf("greedy telemetry: branches %d, clamps %d", gr.Branches, gr.ClampedChoices)
		}
		var probes extmem.Stats
		for _, dec := range gr.Greedy {
			probes = probes.Add(dec.ProbeStats)
		}
		if gr.TotalStats.Reads-gr.ExecStats.Reads != probes.Reads ||
			gr.TotalStats.Writes-gr.ExecStats.Writes != probes.Writes {
			t.Fatalf("probe accounting off: total %+v, exec %+v, trace %+v",
				gr.TotalStats, gr.ExecStats, probes)
		}
	})
}
