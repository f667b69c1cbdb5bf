package acyclicjoin

import (
	"fmt"
	"testing"
)

// deepQuery builds a line R1(a0,a1) ⋈ … ⋈ Rn(a(n-1),an), or a star whose
// petals Ri(a0,bi) share a0, with the same rows in every relation. It also
// returns the relations' sizes, as Explain takes them.
func deepQuery(t *testing.T, star bool, n int, rows [][2]int) (*Query, *Instance, map[string]float64) {
	t.Helper()
	b := NewQuery()
	for i := 1; i <= n; i++ {
		if star {
			b.Relation(fmt.Sprintf("R%d", i), "a0", fmt.Sprintf("b%d", i))
		} else {
			b.Relation(fmt.Sprintf("R%d", i), fmt.Sprintf("a%d", i-1), fmt.Sprintf("a%d", i))
		}
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := q.NewInstance()
	sizes := map[string]float64{}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("R%d", i)
		for _, r := range rows {
			inst.MustAdd(name, r[0], r[1])
		}
		sizes[name] = float64(len(rows))
	}
	return q, inst, sizes
}

// TestDeepQueriesFitTheDerivedAllowance runs lines and stars far deeper
// than the fixed 16·M allowance could hold at 2M per recursion level: a
// chunk holds what it loads and the allowance grows with the query
// (Explanation.MemoryAllowance, max(16, 2·|E|)·M). Every run must succeed, count right, and
// peak within the allowance, on tiny data and on data whose light chunks
// fill to M. The greedy planner reaches 32 relations; the exhaustive one,
// whose dry runs grow with the number of peel orders, stops at 12.
func TestDeepQueriesFitTheDerivedAllowance(t *testing.T) {
	const m = 64
	// On a line of n relations these four rows join into n+3 results:
	// 0…0 then 1…1, switching at any of n+2 places, and 2…2.
	stair := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 2}}
	diag := func(k int) [][2]int {
		rows := make([][2]int, k)
		for i := range rows {
			rows[i] = [2]int{i, i}
		}
		return rows
	}
	check := func(s Strategy, star bool, n int, rows [][2]int, want int64) {
		t.Helper()
		q, inst, sizes := deepQuery(t, star, n, rows)
		opts := Options{Memory: m, Block: 8, Strategy: s}
		label := fmt.Sprintf("strategy %v star=%v n=%d rows=%d", s, star, n, len(rows))
		res, err := Count(q, inst, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Count != want {
			t.Fatalf("%s: count %d, want %d", label, res.Count, want)
		}
		allowance := max(16, 2*n) * m
		if hw := res.PlanningStats.MemHiWater; hw > allowance || res.Stats.MemHiWater > hw {
			t.Fatalf("%s: hi-water %d (exec %d) over the allowance %d", label, hw, res.Stats.MemHiWater, allowance)
		}
		if n <= 8 {
			if ex, err := Explain(q, sizes, opts); err != nil || ex.MemoryAllowance != allowance {
				t.Fatalf("%s: Explain reports an allowance of %v (err %v), want %d", label, ex, err, allowance)
			}
		}
	}
	for n := 3; n <= 32; n++ {
		check(StrategyGreedy, false, n, stair, int64(n+3))
		check(StrategyGreedy, true, n, diag(4), 4)
	}
	for n := 3; n <= 12; n++ {
		check(StrategyExhaustive, false, n, stair, int64(n+3))
		check(StrategyExhaustive, true, n, diag(4), 4)
	}
	// 2M rows of distinct values: every light chunk loads M tuples.
	for n := 10; n <= 12; n++ {
		for _, s := range []Strategy{StrategyGreedy, StrategyExhaustive} {
			check(s, false, n, diag(2*m), 2*m)
			check(s, true, n, diag(2*m), 2*m)
		}
	}
}
