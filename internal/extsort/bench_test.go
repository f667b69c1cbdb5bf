package extsort

import (
	"math/rand"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

func benchSort(b *testing.B, n, m, blk int) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{rng.Int63n(1 << 40), rng.Int63n(1 << 40)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ios int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := extmem.NewDisk(extmem.Config{M: m, B: blk})
		f := fill(d, 2, rows)
		d.ResetStats()
		b.StartTimer()
		s, err := Sort(f, ByCols([]int{0, 1}))
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatal("lost tuples")
		}
		ios = d.Stats().IOs()
	}
	b.ReportMetric(float64(ios), "ios/op")
}

func BenchmarkSort16K(b *testing.B)      { benchSort(b, 16384, 1024, 64) }
func BenchmarkSort64K(b *testing.B)      { benchSort(b, 65536, 1024, 64) }
func BenchmarkSortTinyMem(b *testing.B)  { benchSort(b, 16384, 64, 8) }
func BenchmarkSortDedup16K(b *testing.B) { benchSortDedup(b, 16384) }

func benchSortDedup(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(2))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{rng.Int63n(256), rng.Int63n(256)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := extmem.NewDisk(extmem.Config{M: 1024, B: 64})
		f := fill(d, 2, rows)
		b.StartTimer()
		if _, err := SortDedup(f, Full()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortCols times the column-order sort every relation sort runs, at
// bench/'s machine shape (M=256, B=16): 1,024 arity-2 rows of values below
// 2^30, so run formation takes the packed-key path. The Sort* benchmarks
// above pass a closure comparator and never reach it.
func BenchmarkSortCols(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]tuple.Tuple, 1024)
	for i := range rows {
		rows[i] = tuple.Tuple{rng.Int63n(1 << 30), rng.Int63n(1 << 30)}
	}
	for name, sortFn := range map[string]func(*extmem.File, []int) (*extmem.File, error){
		"plain": SortCols, "dedup": SortDedupCols,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := extmem.NewDisk(extmem.Config{M: 256, B: 16})
				f := fill(d, 2, rows)
				b.StartTimer()
				if _, err := sortFn(f, []int{0, 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
