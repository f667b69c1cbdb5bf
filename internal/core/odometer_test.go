package core

import (
	"testing"

	"acyclicjoin/internal/hypergraph"
)

func leafSet(n int) []*hypergraph.Edge {
	out := make([]*hypergraph.Edge, n)
	for i := range out {
		out[i] = &hypergraph.Edge{ID: i}
	}
	return out
}

func TestOdometerSingleDecision(t *testing.T) {
	o := newOdometer()
	if got := o.choose(nil, "k1", leafSet(3), nil); got != 0 {
		t.Fatalf("first choice = %d", got)
	}
	// Re-asking the same key in the same run returns the same decision.
	if got := o.choose(nil, "k1", leafSet(3), nil); got != 0 {
		t.Fatalf("repeat choice = %d", got)
	}
	if !o.advance() {
		t.Fatal("advance exhausted after first run")
	}
	if got := o.choose(nil, "k1", leafSet(3), nil); got != 1 {
		t.Fatalf("second run choice = %d", got)
	}
	if !o.advance() {
		t.Fatal("advance exhausted after second run")
	}
	if got := o.choose(nil, "k1", leafSet(3), nil); got != 2 {
		t.Fatalf("third run choice = %d", got)
	}
	if o.advance() {
		t.Fatal("advance should be exhausted")
	}
}

func TestOdometerDependentDecisions(t *testing.T) {
	// Key k2 only appears when k1 == 0; k3 only when k1 == 1. The odometer
	// must forget later keys when bumping an earlier one.
	o := newOdometer()
	var runs [][2]int
	run := func() {
		a := o.choose(nil, "k1", leafSet(2), nil)
		b := -1
		if a == 0 {
			b = o.choose(nil, "k2", leafSet(2), nil)
		} else {
			b = o.choose(nil, "k3", leafSet(3), nil)
		}
		runs = append(runs, [2]int{a, b})
	}
	run()
	for o.advance() {
		run()
		if len(runs) > 20 {
			t.Fatal("odometer runaway")
		}
	}
	// Expected: (0,0) (0,1) then k1->1 with k3: (1,0) (1,1) (1,2) = 5 runs.
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %v, want %v", i, runs[i], want[i])
		}
	}
}

func TestOdometerSnapshotIsolated(t *testing.T) {
	o := newOdometer()
	o.choose(nil, "a", leafSet(2), nil)
	snap := o.snapshot()
	o.advance()
	o.choose(nil, "a", leafSet(2), nil)
	if snap["a"] != 0 {
		t.Fatalf("snapshot mutated: %v", snap)
	}
	if o.decisions["a"] != 1 {
		t.Fatalf("advance lost: %v", o.decisions)
	}
}

func TestStructureKeyStable(t *testing.T) {
	g1 := hypergraph.Line(3)
	g2 := hypergraph.Line(3)
	if structureKey(g1) != structureKey(g2) {
		t.Fatal("identical structures produce different keys")
	}
	sub := g1.Without([]int{0}, nil)
	if structureKey(sub) == structureKey(g1) {
		t.Fatal("different structures share a key")
	}
}

// Result.Policy is keyed by structureKey, so its format is pinned literally:
// one "<id>:<attr>.<attr>..." part per edge, sorted as strings (edge 10
// before edge 1) and joined by ";".
func TestStructureKeyLiteral(t *testing.T) {
	for _, c := range []struct {
		g    *hypergraph.Graph
		want string
	}{
		{hypergraph.Line(11), "0:0.1;10:10.11;1:1.2;2:2.3;3:3.4;4:4.5;5:5.6;6:6.7;7:7.8;8:8.9;9:9.10"},
		{hypergraph.StarQuery(3), "0:0.1.2;1:0.3;2:1.4;3:2.5"},
	} {
		if got := structureKey(c.g); got != c.want {
			t.Errorf("structureKey = %q, want %q", got, c.want)
		}
	}
}
