package core

import (
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

var raceEnabled bool

// lightPeelQuery is R(v0,v1) ⋈ S(v1,v2) with every v1 value light, both
// relations already sorted by v1. R holds the even values 0, 2, …,
// 2(chunks·M−1), one tuple each, so its light step loads exactly chunks
// chunks of M tuples; S holds fan tuples for every value 0, 1, …, 2·chunks·M,
// so each chunk's filter keeps fan·M tuples and skips as many in between.
// The first strategy peels R, whose only neighbour is S.
func lightPeelQuery(d *extmem.Disk, chunks, fan int) (*hypergraph.Graph, relation.Instance) {
	n := chunks * d.M()
	rs := make([]tuple.Tuple, n)
	for i := range rs {
		rs[i] = tuple.Tuple{int64(i), int64(2 * i)}
	}
	var ss []tuple.Tuple
	for v := range int64(2*n + 1) {
		for k := range fan {
			ss = append(ss, tuple.Tuple{v, int64(k)})
		}
	}
	restore := d.Suspend()
	defer restore()
	return hypergraph.Line(2), relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, rs).WithSortOrder([]int{1, 0}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, ss).WithSortOrder([]int{0, 1}),
	}
}

// TestLightPeelChargesOneMergePerNeighbour pins the light step's filter
// charge: a peel over c chunks reads its neighbour at most Blocks(S) + c
// times, one merge pass plus one boundary block per chunk, where a filter
// that rereads S for every chunk would read c·Blocks(S). Everything else
// the run charges is known exactly: the chunk load, which also finds the
// heavy values, reads R once, and each chunk's filtered S is written and
// then scanned by the base case.
func TestLightPeelChargesOneMergePerNeighbour(t *testing.T) {
	const m, b, fan = 64, 8, 2
	for _, chunks := range []int{1, 3, 8} {
		d := disk(m, b)
		g, in := lightPeelQuery(d, chunks, fan)
		res, err := Run(g, in, nil, Options{Strategy: StrategyFirst})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(chunks * m * fan); res.Emitted != want {
			t.Fatalf("%d chunks: %d results, want %d", chunks, res.Emitted, want)
		}
		kept := int64((fan*m + b - 1) / b) // blocks of one chunk's filtered S
		rest := in[0].Blocks() + int64(chunks)*2*kept
		filter := res.ExecStats.IOs() - rest
		if bound := in[1].Blocks() + int64(chunks); filter > bound || filter < in[1].Blocks()*9/10 {
			t.Fatalf("%d chunks: the filters charged %d I/Os over S's %d blocks, want at most %d",
				chunks, filter, in[1].Blocks(), bound)
		}
	}
}

// TestLightPeelAllocsFlat guards the light step's host memory. A peel
// recurses on the scratch instance of its recursion depth, shared by the
// Run, which costs no allocation once the depth has been reached. It
// resumes its filters by index, so a chunk allocates what its filter and
// its recursion need and nothing that grows with the chunks before it: each
// chunk adds the same number of allocations, and its matcher adds none.
func TestLightPeelAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	g, in := lightPeelQuery(disk(64, 8), 1, 1)
	steps := newStepTable()
	steps.sub(1, in)
	if a := testing.AllocsPerRun(20, func() {
		steps.sub(0, in)
		steps.sub(1, steps.sub(0, in))
	}); a != 0 {
		t.Fatalf("reusing the scratch instances allocates %v times", a)
	}
	if len(steps.sub(1, in)) != g.NumEdges() {
		t.Fatal("the scratch instance does not copy the instance")
	}
	allocs := func(chunks int) float64 {
		d := disk(64, 8)
		d.SetSlabs(false)
		g, in := lightPeelQuery(d, chunks, 2)
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(g, in, nil, Options{Strategy: StrategyFirst}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a4, a8, a12 := allocs(4), allocs(8), allocs(12)
	if a12-a8 != a8-a4 {
		t.Fatalf("4 more chunks cost %v allocations from 4 chunks but %v from 8", a8-a4, a12-a8)
	}
	// A chunk's filter, its operator record and its output relation and
	// file, costs 7 allocations. The chunk's matcher, kept per depth, costs
	// none (it cost 2 when each chunk made its own).
	if per := (a8 - a4) / 4; per > 7 {
		t.Fatalf("a chunk costs %v allocations, want at most 7", per)
	}
}
