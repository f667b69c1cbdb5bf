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
		err := r.LoadChunksBy(0, func(c *Chunk) error {
			rows += len(c.Tuples)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows != r.Len() {
			b.Fatalf("loaded %d rows, want %d", rows, r.Len())
		}
	}
}
