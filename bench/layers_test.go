package main

import (
	"context"
	"errors"
	"testing"

	"acyclicjoin"
)

// TestParityCatchesADivergentLayerRun checks that the parity check passes a
// layer run of the public query and rejects one whose counters moved.
func TestParityCatchesADivergentLayerRun(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range smallFileWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rels := w.generate(3)
			lq, err := newLayerQuery(rels)
			if err != nil {
				t.Fatal(err)
			}
			q, inst, err := buildQuery(rels)
			if err != nil {
				t.Fatal(err)
			}
			pub, err := acyclicjoin.RunContext(context.Background(), q, inst, w.options(), nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runLayers(w, lq, rels, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.parity(pub); err != nil {
				t.Fatalf("layer run of the public query: %v", err)
			}
			r.planning.Reads++
			if err := r.parity(pub); err == nil {
				t.Error("a moved PlanningStats passed the parity check")
			}
			_, _, err = tracedPass(w, lq, rels, 1, &acyclicjoin.Result{Count: pub.Count + 1})
			if !errors.Is(err, errParity) {
				t.Errorf("traced pass against a wrong public result: %v, want a parity error", err)
			}
		})
	}
}
