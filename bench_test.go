// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's per-experiment index): each BenchmarkEXX wraps the
// corresponding harness experiment and reports simulated block I/Os as a
// custom metric alongside wall-clock time. Run with
//
//	go test -bench=. -benchmem
//
// The "ios/op" metric is the quantity the paper's theorems bound; wall time
// only reflects the simulator's in-memory work.
package acyclicjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"acyclicjoin/internal/harness"
)

func benchExperiment(b *testing.B, id string, p harness.Params) {
	e := harness.Get(id)
	if e == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(p)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// benchParams are the benchmark-scale machine parameters: a larger memory
// and more data than the unit-test scale.
var benchParams = harness.Params{M: 256, B: 16, Scale: 2, Seed: 42}

func BenchmarkE01TwoRelation(b *testing.B)      { benchExperiment(b, "E1", benchParams) }
func BenchmarkE02Triangle(b *testing.B)         { benchExperiment(b, "E2", benchParams) }
func BenchmarkE03LoomisWhitney(b *testing.B)    { benchExperiment(b, "E3", benchParams) }
func BenchmarkE04Line3(b *testing.B)            { benchExperiment(b, "E4", benchParams) }
func BenchmarkE05Line4Crossover(b *testing.B)   { benchExperiment(b, "E5", benchParams) }
func BenchmarkE06Line5Balanced(b *testing.B)    { benchExperiment(b, "E6", benchParams) }
func BenchmarkE07Line5Unbalanced(b *testing.B)  { benchExperiment(b, "E7", benchParams) }
func BenchmarkE08Line7Unbalanced(b *testing.B)  { benchExperiment(b, "E8", benchParams) }
func BenchmarkE09Line6And8(b *testing.B)        { benchExperiment(b, "E9", benchParams) }
func BenchmarkE10Star(b *testing.B)             { benchExperiment(b, "E10", benchParams) }
func BenchmarkE11EqualSize(b *testing.B)        { benchExperiment(b, "E11", benchParams) }
func BenchmarkE12Lollipop(b *testing.B)         { benchExperiment(b, "E12", benchParams) }
func BenchmarkE13Dumbbell(b *testing.B)         { benchExperiment(b, "E13", benchParams) }
func BenchmarkE14SubjoinPartial(b *testing.B)   { benchExperiment(b, "E14", benchParams) }
func BenchmarkE15YannakakisGap(b *testing.B)    { benchExperiment(b, "E15", benchParams) }
func BenchmarkE16CoverIntegrality(b *testing.B) { benchExperiment(b, "E16", benchParams) }
func BenchmarkE17LineCovers(b *testing.B)       { benchExperiment(b, "E17", benchParams) }
func BenchmarkE18InternalMemory(b *testing.B)   { benchExperiment(b, "E18", benchParams) }
func BenchmarkE19PhaseBreakdown(b *testing.B)   { benchExperiment(b, "E19", benchParams) }
func BenchmarkE20HeavySplitAblation(b *testing.B) {
	benchExperiment(b, "E20", benchParams)
}
func BenchmarkE21MemorySweep(b *testing.B) { benchExperiment(b, "E21", benchParams) }
func BenchmarkE22ReductionAblation(b *testing.B) {
	benchExperiment(b, "E22", benchParams)
}
func BenchmarkE23KnobInvariance(b *testing.B) { benchExperiment(b, "E23", benchParams) }
func BenchmarkE28GreedyPlanner(b *testing.B)  { benchExperiment(b, "E28", benchParams) }

// BenchmarkPublicAPIRun measures the end-to-end public API on a skewed
// 3-hop path query, reporting simulated I/Os per operation.
func BenchmarkPublicAPIRun(b *testing.B) {
	q, err := NewQuery().
		Relation("F1", "a", "b").
		Relation("F2", "b", "c").
		Relation("F3", "c", "d").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inst := q.NewInstance()
	for i := 0; i < 4000; i++ {
		src, dst := rng.Intn(500), rng.Intn(500)
		if rng.Intn(3) == 0 {
			dst = rng.Intn(5)
		}
		inst.MustAdd("F1", src, dst)
		inst.MustAdd("F2", src, dst)
		inst.MustAdd("F3", src, dst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ios int64
	for i := 0; i < b.N; i++ {
		res, err := Count(q, inst, Options{Memory: 1024, Block: 64})
		if err != nil {
			b.Fatal(err)
		}
		ios = res.Stats.IOs
	}
	b.ReportMetric(float64(ios), "ios/op")
}

// BenchmarkPublicAPIEmit measures the emit path on an output-bound L3 query
// routed through the line dispatcher: every row is decoded into a Row and
// kept, so ns/op and B/op are dominated by row building.
func BenchmarkPublicAPIEmit(b *testing.B) {
	q, err := NewQuery().
		Relation("R1", "a", "b").
		Relation("R2", "b", "c").
		Relation("R3", "c", "d").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	inst := q.NewInstance()
	for i := 0; i < 1000; i++ {
		inst.MustAdd("R1", rng.Intn(1000), rng.Intn(200))
		inst.MustAdd("R2", rng.Intn(200), rng.Intn(200))
		inst.MustAdd("R3", rng.Intn(200), rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rows []Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		_, err := Run(q, inst, Options{Memory: 1024, Block: 64}, func(row Row) {
			rows = append(rows, row)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows/op")
}

// BenchmarkStrategies compares the peeling strategies' execution I/O on one
// fixed L4 instance (the planning overhead of exhaustive shows up in wall
// time; its execution I/O matches the best deterministic branch).
func BenchmarkStrategies(b *testing.B) {
	mk := func() (*Query, *Instance) {
		q, err := NewQuery().
			Relation("R1", "a", "b").
			Relation("R2", "b", "c").
			Relation("R3", "c", "d").
			Relation("R4", "d", "e").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		inst := q.NewInstance()
		for i := 0; i < 3000; i++ {
			for r := 1; r <= 4; r++ {
				inst.MustAdd(fmt.Sprintf("R%d", r), rng.Intn(200), rng.Intn(200))
			}
		}
		return q, inst
	}
	for _, s := range []struct {
		name string
		st   Strategy
	}{
		{"first", StrategyFirst},
		{"smallest", StrategySmallest},
		{"greedy", StrategyGreedy},
		{"exhaustive", StrategyExhaustive},
	} {
		b.Run(s.name, func(b *testing.B) {
			q, inst := mk()
			b.ResetTimer()
			var ios int64
			for i := 0; i < b.N; i++ {
				res, err := Count(q, inst, Options{
					Memory: 512, Block: 32, Strategy: s.st, NoLineSpecialization: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				ios = res.Stats.IOs
			}
			b.ReportMetric(float64(ios), "ios/op")
		})
	}
}
