package core

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// BenchmarkPairJoinUniform measures the §3 instance-optimal join on uniform
// data where the merge path dominates.
func BenchmarkPairJoinUniform(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 1024, B: 64})
	rng := rand.New(rand.NewSource(1))
	mk := func(a0, a1 tuple.Attr) *relation.Relation {
		r := workload.UniformPairs(d, rng, a0, a1, 4096, 4096, 16384)
		s, err := r.SortBy(a1)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	ra := mk(0, 1)
	rbRaw := workload.UniformPairs(d, rng, 1, 2, 4096, 4096, 16384)
	rb, err := rbRaw.SortBy(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ios int64
	for i := 0; i < b.N; i++ {
		before := d.Stats()
		n := 0
		if err := PairJoin(ra, rb, 1, func(_, _ tuple.Tuple) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		ios = d.Stats().Sub(before).IOs()
	}
	b.ReportMetric(float64(ios), "ios/op")
}

// BenchmarkPairJoinHeavy measures the doubly-heavy blocked-NLJ path.
func BenchmarkPairJoinHeavy(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 256, B: 16})
	n := 4096
	ra := workload.Mapping(d, 0, 1, n, 1, n, workload.ManyToOne)
	rb := workload.Mapping(d, 1, 2, 1, n, n, workload.OneToMany)
	ras, _ := ra.SortBy(1)
	rbs, _ := rb.SortBy(1)
	b.ReportAllocs()
	b.ResetTimer()
	var ios int64
	for i := 0; i < b.N; i++ {
		before := d.Stats()
		if err := PairJoin(ras, rbs, 1, func(_, _ tuple.Tuple) error { return nil }); err != nil {
			b.Fatal(err)
		}
		ios = d.Stats().Sub(before).IOs()
	}
	b.ReportMetric(float64(ios), "ios/op")
}

// BenchmarkAcyclicJoinL5 measures Algorithm 2 end to end (greedy branch) on
// a uniform L5.
func BenchmarkAcyclicJoinL5(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 512, B: 32})
	opcache.Enable(d)
	rng := rand.New(rand.NewSource(3))
	g, in := workload.LineUniform(d, rng, 5, 4096, 512)
	b.ReportAllocs()
	b.ResetTimer()
	var ios int64
	for i := 0; i < b.N; i++ {
		before := d.Stats()
		r, err := Run(g, in, func(tuple.Assignment) {}, Options{Strategy: StrategySmallest})
		if err != nil {
			b.Fatal(err)
		}
		ios = r.ExecStats.IOs()
		_ = before
	}
	b.ReportMetric(float64(ios), "ios/op")
}

// BenchmarkExhaustiveBranches measures branch exploration on a 16-branch L5
// at harness Scale 4 (the line experiments use 512*Scale rows per relation),
// with the operator memo on (/seq) and off (/seq-nomemo). Both arms run with
// branch-and-bound pruning on (the default), so /seq tracks the pruning
// speedup against the committed baseline. Every sub-benchmark asserts the
// pinned contract against the reference run: emitted rows, execution stats,
// and the winning policy are bit-identical.
func BenchmarkExhaustiveBranches(b *testing.B) {
	mk := func() (*extmem.Disk, *Result) {
		d := extmem.NewDisk(extmem.Config{M: 512, B: 32})
		opcache.Enable(d)
		rng := rand.New(rand.NewSource(7))
		g, in := workload.LineUniform(d, rng, 5, 2048, 512)
		r, err := Run(g, in, func(tuple.Assignment) {}, Options{Strategy: StrategyExhaustive})
		if err != nil {
			b.Fatal(err)
		}
		return d, r
	}
	_, ref := mk()
	if ref.Branches < 4 {
		b.Fatalf("expected a multi-branch query, got %d branches", ref.Branches)
	}
	cases := []struct {
		name string
		memo bool
	}{
		{"seq", true},
		{"seq-nomemo", false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := extmem.NewDisk(extmem.Config{M: 512, B: 32})
			if c.memo {
				opcache.Enable(d)
			}
			rng := rand.New(rand.NewSource(7))
			g, in := workload.LineUniform(d, rng, 5, 2048, 512)
			b.ReportAllocs()
			b.ResetTimer()
			var pruned int
			for i := 0; i < b.N; i++ {
				r, err := Run(g, in, func(tuple.Assignment) {},
					Options{Strategy: StrategyExhaustive})
				if err != nil {
					b.Fatal(err)
				}
				if r.Emitted != ref.Emitted || r.ExecStats != ref.ExecStats ||
					!reflect.DeepEqual(r.Policy, ref.Policy) {
					b.Fatalf("%s diverged: emitted %d/%d exec %+v/%+v policy %v/%v",
						c.name, r.Emitted, ref.Emitted, r.ExecStats, ref.ExecStats, r.Policy, ref.Policy)
				}
				pruned = r.Prune.Pruned
			}
			b.ReportMetric(float64(ref.Branches), "branches")
			b.ReportMetric(float64(pruned), "pruned")
		})
	}
}

// BenchmarkExhaustivePlanning isolates the dry-run planning overhead.
func BenchmarkExhaustivePlanning(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 512, B: 32})
	opcache.Enable(d)
	rng := rand.New(rand.NewSource(4))
	g, in := workload.LineUniform(d, rng, 4, 2048, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(g, in, func(tuple.Assignment) {}, Options{Strategy: StrategyExhaustive})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Branches), "branches")
			b.ReportMetric(float64(r.TotalStats.IOs())/float64(r.ExecStats.IOs()), "planning-overhead-x")
		}
	}
}

// BenchmarkExhaustiveLollipop measures the exhaustive search path, memo on,
// on the shape the bench/ module's tree-plan workload runs: Lollipop(3) with
// 1,024 uniform draws per edge over a domain of 256, M=256, B=16, fully
// reduced and then run with AssumeReduced as the public Run does. Every
// iteration builds its instance on a fresh disk outside the timer, so no
// iteration replays another's memo entries, and recycles the disk after.
// It reports 28 branches and 164,215 ios/op, the reduction included; the
// counts are deterministic, so a change to either is a change to the
// charges.
func BenchmarkExhaustiveLollipop(b *testing.B) {
	g := hypergraph.Lollipop(3)
	b.ReportAllocs()
	var ios int64
	var branches int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := extmem.NewDisk(extmem.Config{M: 256, B: 16})
		opcache.Enable(d)
		in := randomInstance(d, rand.New(rand.NewSource(7)), g, 1024, 256)
		before := d.Stats()
		b.StartTimer()
		red, err := reducer.FullReduce(g, in)
		if err != nil {
			b.Fatal(err)
		}
		r, err := Run(g, red, nil, Options{Strategy: StrategyExhaustive, AssumeReduced: true})
		if err != nil {
			b.Fatal(err)
		}
		ios, branches = d.Stats().Sub(before).IOs(), r.Branches
		d.Recycle()
	}
	b.ReportMetric(float64(ios), "ios/op")
	b.ReportMetric(float64(branches), "branches")
}
