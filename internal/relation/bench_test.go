package relation

import (
	"testing"

	"acyclicjoin/internal/extmem"
)

// BenchmarkLoadChunksBy loads 16K light tuples (groups of 4) by value at
// M=256, B=16: the light-value step of Algorithm 2.
func BenchmarkLoadChunksBy(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 256, B: 16})
	r := lightRel(d, 16384, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		heavy, err := r.LoadChunksBy(0, func(c *Chunk) error {
			rows += c.Len()
			return nil
		})
		if err != nil || len(heavy) != 0 {
			b.Fatal(heavy, err)
		}
		if rows != r.Len() {
			b.Fatalf("loaded %d rows, want %d", rows, r.Len())
		}
	}
}

// BenchmarkSemijoinValues filters 16K tuples sorted by the probed value
// (groups of 4) against every other value at M=256, B=16: the R(e')(M1)
// step of Algorithm 2, where the input arrives sorted by the value.
func BenchmarkSemijoinValues(b *testing.B) {
	d := extmem.NewDisk(extmem.Config{M: 256, B: 16})
	r := lightRel(d, 16384, 4)
	vals := make([]int64, 0, 16384/8)
	for v := int64(0); v < 16384/4; v += 2 {
		vals = append(vals, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := SemijoinValues(r, 0, vals, 0)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != r.Len()/2 {
			b.Fatalf("kept %d rows, want %d", out.Len(), r.Len()/2)
		}
	}
}
