package core

import (
	"math/rand"
	"testing"

	"acyclicjoin/internal/extmem"
)

// The DisableHeavySplit ablation must be a pure cost change: identical
// results on random acyclic queries, memory still within the allowance.
func TestDisableHeavySplitCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		m := []int{6, 8}[rng.Intn(2)]
		d := extmem.NewDisk(extmem.Config{M: m, B: 2})
		g := randomAcyclicQuery(rng, 2+rng.Intn(3))
		in := randomInstance(d, rng, g, 8+rng.Intn(40), 3) // small domain: skew
		want := oracle(t, g, in)
		got, _ := collect(t, g, in, Options{
			Strategy:          StrategySmallest,
			DisableHeavySplit: true,
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d on %v: %d results, want %d", trial, g, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
		if hw := d.Stats().MemHiWater; hw > MemFactor(g)*m {
			t.Fatalf("trial %d: hi-water %d over allowance", trial, hw)
		}
	}
}

// Heavy values must be exercised by the ablation path too.
func TestDisableHeavySplitHeavyValues(t *testing.T) {
	d := disk(4, 1)
	g, in := lineInstance(d, rand.New(rand.NewSource(3)), 2, 60, 2) // domain 2: heavy
	want := oracle(t, g, in)
	got, _ := collect(t, g, in, Options{DisableHeavySplit: true, Strategy: StrategyFirst})
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
}
