package reducer_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// writtenReduce is the full reducer with every upward destination's sort
// written to a file before its semijoin reads it back: the reference
// FuzzReducerOracle holds reducer.FullReduce to. saved sums the blocks of
// the destinations that needed that sort, which FullReduce neither writes
// nor re-reads.
func writtenReduce(g *hypergraph.Graph, in relation.Instance) (out relation.Instance, saved int64, err error) {
	for _, e := range g.Edges() {
		in[e.ID].Disk().WithPhase("reduce", func() {
			out, saved, err = writtenReduceSweeps(g, in)
		})
		break
	}
	return out, saved, err
}

func writtenReduceSweeps(g *hypergraph.Graph, in relation.Instance) (relation.Instance, int64, error) {
	parent, order, err := g.JoinForest()
	if err != nil {
		return nil, 0, err
	}
	edges := g.Edges()
	out := in.Clone()
	type sortKey struct {
		r *relation.Relation
		a hypergraph.Attr
	}
	sorts := map[sortKey]*relation.Relation{}
	sortBy := func(r *relation.Relation, a hypergraph.Attr) (*relation.Relation, bool, error) {
		k := sortKey{r, a}
		if s, ok := sorts[k]; ok {
			return s, false, nil
		}
		s, err := r.SortBy(a)
		if err != nil {
			return nil, false, err
		}
		sorts[k] = s
		return s, s != r, nil
	}
	var saved int64
	semi := func(dst, src int, up bool) error {
		de, se := edges[dst], edges[src]
		a := hypergraph.SharedAttr(de, se)
		dr, sorted, err := sortBy(out[de.ID], a)
		if err != nil {
			return err
		}
		if up && sorted {
			saved += out[de.ID].Blocks()
		}
		sr, _, err := sortBy(out[se.ID], a)
		if err != nil {
			return err
		}
		red, err := relation.Semijoin(dr, sr, a)
		if err != nil {
			return err
		}
		out[de.ID] = red
		return nil
	}
	for i := len(order) - 1; i >= 0; i-- {
		if u, p := order[i], parent[order[i]]; p >= 0 {
			if err := semi(p, u, true); err != nil {
				return nil, 0, err
			}
		}
	}
	for _, u := range order {
		if p := parent[u]; p >= 0 {
			if err := semi(u, p, false); err != nil {
				return nil, 0, err
			}
		}
	}
	return out, saved, nil
}

// fuzzShape returns one of the Berge-acyclic shapes FuzzReducerOracle draws,
// with 2 to 6 edges: a line, a star, a lollipop, or a fork whose hub has
// every child but the last joined on the same attribute.
func fuzzShape(kind, size uint8) *hypergraph.Graph {
	k := int(size % 5) // 0..4
	switch kind % 4 {
	case 0:
		return hypergraph.Line(2 + k)
	case 1:
		return hypergraph.StarQuery(1 + k)
	case 2:
		return hypergraph.Lollipop(2 + k%3)
	}
	edges := []*hypergraph.Edge{{ID: 0, Name: "H", Attrs: []int{0, 1}}}
	for i := 1; i <= 1+k; i++ {
		a := 0
		if i == 1+k && k > 0 {
			a = 1
		}
		edges = append(edges, &hypergraph.Edge{ID: i, Name: fmt.Sprintf("C%d", i), Attrs: []int{a, 10 + i}})
	}
	return hypergraph.MustNew(edges)
}

// FuzzReducerOracle holds reducer.FullReduce to writtenReduce on random
// shapes, sizes (empty and dangling-heavy relations included), machine
// shapes and backends: the reduced relations must be identical edge by edge
// (rows, order and SortCols), the charges the reference's less a read and a
// write per block of each upward destination it sorted, the memory peak no
// higher, and core.Run must cost, plan and count the same on both reduced
// instances.
func FuzzReducerOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(0), uint8(3), false)
	f.Add(int64(2), uint8(3), uint8(3), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, kind, size, mRaw, bRaw uint8, file bool) {
		g := fuzzShape(kind, size)
		b := int(bRaw%6) + 1
		cfg := extmem.Config{M: b * (int(mRaw%5) + 3), B: b}
		rng := rand.New(rand.NewSource(seed))
		type relSpec struct {
			n, dom int
			seed   int64
		}
		specs := map[int]relSpec{}
		for _, e := range g.Edges() {
			s := relSpec{n: rng.Intn(60), dom: 1 + rng.Intn(12), seed: rng.Int63()}
			if rng.Intn(8) == 0 {
				s.n = 0
			}
			specs[e.ID] = s
		}
		newDisk := func() *extmem.Disk {
			if !file {
				return extmem.NewDisk(cfg)
			}
			eng, err := diskfile.Open("", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return extmem.NewDiskWithBackend(cfg, eng)
		}
		instance := func(d *extmem.Disk) relation.Instance {
			in := relation.Instance{}
			for _, e := range g.Edges() {
				s := specs[e.ID]
				r := rand.New(rand.NewSource(s.seed))
				rows := make([]tuple.Tuple, s.n)
				for i := range rows {
					row := make(tuple.Tuple, len(e.Attrs))
					for j := range row {
						row[j] = int64(r.Intn(s.dom))
					}
					rows[i] = row
				}
				in[e.ID] = relation.FromTuples(d, tuple.Schema(e.Attrs), rows)
			}
			return in
		}

		refDisk, gotDisk := newDisk(), newDisk()
		refIn, gotIn := instance(refDisk), instance(gotDisk)
		refDisk.ResetStats()
		gotDisk.ResetStats()
		ref, saved, err := writtenReduce(g, refIn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reducer.FullReduce(g, gotIn)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if !reflect.DeepEqual(relation.Contents(got[e.ID]), relation.Contents(ref[e.ID])) ||
				!reflect.DeepEqual(got[e.ID].SortCols(), ref[e.ID].SortCols()) {
				t.Fatalf("%v edge %s: reduced to %v sorted %v, want %v sorted %v", g, e.Name,
					relation.Contents(got[e.ID]), got[e.ID].SortCols(), relation.Contents(ref[e.ID]), ref[e.ID].SortCols())
			}
		}
		rs, gs := refDisk.Stats(), gotDisk.Stats()
		if rs.Reads-gs.Reads != saved || rs.Writes-gs.Writes != saved || gs.MemHiWater > rs.MemHiWater {
			t.Fatalf("%v: FullReduce charged %+v, want %d reads and writes fewer than %+v and no higher peak", g, gs, saved, rs)
		}

		// Exhaustive search on five or six edges at M = 3B runs for tens of
		// seconds; greedy plans those from the data in one pass.
		opts := core.Options{Strategy: core.StrategyExhaustive}
		if g.NumEdges() > 4 {
			opts.Strategy = core.StrategyGreedy
		}
		run := func(d *extmem.Disk, in relation.Instance) *core.Result {
			d.ResetStats()
			res, err := core.Run(g, in, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		rr, gr := run(refDisk, ref), run(gotDisk, got)
		if rr.ExecStats != gr.ExecStats || rr.TotalStats != gr.TotalStats || rr.Emitted != gr.Emitted ||
			!reflect.DeepEqual(rr.Policy, gr.Policy) {
			t.Fatalf("%v: core.Run on the reduced instances: exec %+v total %+v emitted %d policy %v, want %+v %+v %d %v", g,
				gr.ExecStats, gr.TotalStats, gr.Emitted, gr.Policy, rr.ExecStats, rr.TotalStats, rr.Emitted, rr.Policy)
		}
	})
}
