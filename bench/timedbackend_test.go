package main

import (
	"math/rand"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
)

// smallFileWorkloads are quick queries on the file backend, one per core
// entry point: the line dispatcher (core.RunLine) and Algorithm 2 (core.Run).
func smallFileWorkloads() []*workload {
	return []*workload{
		{name: "small-line", backend: "file", warmup: 1, traced: 3,
			inputs: func(rng *rand.Rand) []relSpec {
				return uniformRelations(rng, hypergraph.Line(4), 96, 24)
			}},
		{name: "small-star", backend: "file", emitRows: true, warmup: 1, traced: 3,
			inputs: func(rng *rand.Rand) []relSpec {
				return uniformRelations(rng, hypergraph.StarQuery(2), 64, 16)
			}},
	}
}

// withoutTimingCounters zeroes the async pipeline's four counters that
// depend on host timing and differ between any two runs.
func withoutTimingCounters(s extmem.DeviceStats) extmem.DeviceStats {
	s.OverlappedWrites, s.FlushQueueHiWater, s.PrefetchInFlight, s.DemandWaits = 0, 0, 0, 0
	return s
}

func TestTimingDecoratorChangesNothing(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range smallFileWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rels := w.inputs(rand.New(rand.NewSource(1)))
			lq, err := newLayerQuery(rels)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runLayers(w, lq, rels, nil)
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runLayers(w, lq, rels, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if timed.backend == nil || timed.backend.ops[opReadRange].calls.Load() == 0 ||
				timed.backend.ops[opWriteRange].calls.Load() == 0 {
				t.Fatal("the decorator did not see the query's transfers")
			}
			if plain.count == 0 || plain.count != timed.count {
				t.Errorf("count: %d without the decorator, %d with it", plain.count, timed.count)
			}
			if plain.stats != timed.stats || plain.planning != timed.planning {
				t.Errorf("stats: %v / %v without, %v / %v with", plain.stats, plain.planning, timed.stats, timed.planning)
			}
			if plain.xfer != timed.xfer {
				t.Errorf("transfers: %+v without, %+v with", plain.xfer, timed.xfer)
			}
			if a, b := withoutTimingCounters(plain.device), withoutTimingCounters(timed.device); a != b {
				t.Errorf("device stats: %+v without, %+v with", a, b)
			}
		})
	}
}
