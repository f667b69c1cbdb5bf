package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// checkLeaks asserts a run left no child disks and no extra goroutines.
func checkLeaks(t *testing.T, d *extmem.Disk, goroutinesBefore int) {
	t.Helper()
	if n := d.LiveChildren(); n != 0 {
		t.Errorf("leak check: %d child disks alive after run", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Errorf("leak check: %d goroutines alive, started with %d",
				runtime.NumGoroutine(), goroutinesBefore)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

var testCfg = extmem.Config{M: 64, B: 8}

// buildInstance loads rows onto d on the free path, like the real loader.
func buildInstance(d *extmem.Disk, g *hypergraph.Graph, rows map[int][]tuple.Tuple) relation.Instance {
	restore := d.Suspend()
	defer restore()
	in := relation.Instance{}
	for _, e := range g.Edges() {
		schema := make(tuple.Schema, len(e.Attrs))
		copy(schema, e.Attrs)
		in[e.ID] = relation.FromTuples(d, schema, rows[e.ID])
	}
	return in
}

// fingerprint is the order-insensitive row fingerprint used across the repo:
// a wrap-around sum of per-row FNV-1a hashes.
type fingerprint struct {
	rows int64
	fp   uint64
}

func (f *fingerprint) add(a tuple.Assignment) {
	h := fnv.New64a()
	h.Write([]byte(a.String()))
	f.fp += h.Sum64()
	f.rows++
}

// uniformRows fills each edge with n random tuples over a small domain.
func uniformRows(g *hypergraph.Graph, rng *rand.Rand, n, dom int) map[int][]tuple.Tuple {
	rows := map[int][]tuple.Tuple{}
	for _, e := range g.Edges() {
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(e.Attrs))
			for j := range t {
				t[j] = int64(rng.Intn(dom))
			}
			rows[e.ID] = append(rows[e.ID], t)
		}
	}
	return rows
}

// reference evaluates (g, rows) unsharded on a fresh disk.
func reference(t *testing.T, g *hypergraph.Graph, rows map[int][]tuple.Tuple, copts core.Options) fingerprint {
	t.Helper()
	d := extmem.NewDisk(testCfg)
	in := buildInstance(d, g, rows)
	var ref fingerprint
	if _, err := core.Run(g, in, ref.add, copts); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return ref
}

// sharded evaluates (g, rows) with p servers on a fresh disk, leak-checked.
func sharded(t *testing.T, g *hypergraph.Graph, rows map[int][]tuple.Tuple, opts Options) (fingerprint, *Result) {
	t.Helper()
	before := runtime.NumGoroutine()
	d := extmem.NewDisk(testCfg)
	in := buildInstance(d, g, rows)
	var got fingerprint
	res, err := Run(g, in, got.add, opts)
	if err != nil {
		t.Fatalf("sharded run (p=%d): %v", opts.Shards, err)
	}
	checkLeaks(t, d, before)
	return got, res
}

// Per-shape input sizes are chosen to keep outputs in the thousands: the
// differential buffers every emitted row, and join fan-out is exponential in
// the query's depth.
var testShapes = []struct {
	name      string
	g         *hypergraph.Graph
	rows, dom int
}{
	{"line2", hypergraph.Line(2), 120, 10},
	{"line3", hypergraph.Line(3), 80, 10},
	{"star2", hypergraph.StarQuery(2), 80, 8},
	{"star3", hypergraph.StarQuery(3), 50, 8},
	{"lollipop4", hypergraph.Lollipop(4), 25, 10},
	{"flower4", flower(4), 60, 15},
}

// flower builds k binary relations R_i(0, i+1) that all share join attribute
// 0, so every relation hash-shards on it and none is broadcast.
func flower(k int) *hypergraph.Graph {
	var edges []*hypergraph.Edge
	for i := 0; i < k; i++ {
		edges = append(edges, &hypergraph.Edge{ID: i, Name: fmt.Sprintf("R%d", i+1),
			Attrs: []hypergraph.Attr{0, hypergraph.Attr(i + 1)}})
	}
	return hypergraph.MustNew(edges)
}

// The tentpole differential: at every shard count the emitted row multiset is
// bit-identical to the unsharded run, under both memo modes.
func TestShardMatchesUnsharded(t *testing.T) {
	for _, shape := range testShapes {
		for _, memo := range []core.MemoMode{core.MemoOn, core.MemoOff} {
			rng := rand.New(rand.NewSource(7))
			rows := uniformRows(shape.g, rng, shape.rows, shape.dom)
			copts := core.Options{Memo: memo}
			ref := reference(t, shape.g, rows, copts)
			for _, p := range []int{1, 2, 4, 8} {
				got, res := sharded(t, shape.g, rows, Options{Shards: p, Core: copts})
				if got != ref {
					t.Errorf("%s p=%d memo=%v: rows %d fp %x, want rows %d fp %x",
						shape.name, p, memo, got.rows, got.fp, ref.rows, ref.fp)
				}
				if res.Emitted != ref.rows {
					t.Errorf("%s p=%d: Emitted=%d, want %d", shape.name, p, res.Emitted, ref.rows)
				}
				if res.Load.Shards != p || len(res.Load.Rounds) != 2 {
					t.Errorf("%s p=%d: bad LoadStats %+v", shape.name, p, res.Load)
				}
				if res.Load.Bypass != (p == 1) {
					t.Errorf("%s p=%d: Bypass=%v, want it exactly at p=1",
						shape.name, p, res.Load.Bypass)
				}
				if tot := res.Load.Rounds[0].Total(); tot < res.Load.InputTuples {
					t.Errorf("%s p=%d: distributed %d tuples < input %d",
						shape.name, p, tot, res.Load.InputTuples)
				}
			}
		}
	}
}

// Sharded runs must also agree with the unsharded run when each server plans
// with a different strategy.
func TestShardAcrossStrategiesAndWorkers(t *testing.T) {
	g := hypergraph.StarQuery(3)
	rng := rand.New(rand.NewSource(11))
	rows := uniformRows(g, rng, 50, 8)
	ref := reference(t, g, rows, core.Options{})
	for _, copts := range []core.Options{
		{Strategy: core.StrategyExhaustive},
		{Strategy: core.StrategyExhaustive, NoPrune: true},
		{Strategy: core.StrategyFirst},
		{Strategy: core.StrategySmallest},
		{Strategy: core.StrategyGreedy},
	} {
		got, _ := sharded(t, g, rows, Options{Shards: 4, Core: copts})
		if got != ref {
			t.Errorf("strategy %v: rows %d fp %x, want rows %d fp %x",
				copts.Strategy, got.rows, got.fp, ref.rows, ref.fp)
		}
	}
}

// Two identical sharded runs must agree byte for byte: same loads, same
// counts, and the same emission order (server order, then local order).
func TestShardDeterminism(t *testing.T) {
	g := hypergraph.Line(3)
	rng := rand.New(rand.NewSource(3))
	rows := uniformRows(g, rng, 80, 8)
	run := func() (string, *Result) {
		before := runtime.NumGoroutine()
		d := extmem.NewDisk(testCfg)
		in := buildInstance(d, g, rows)
		var trace strings.Builder
		res, err := Run(g, in, func(a tuple.Assignment) {
			trace.WriteString(a.String())
			trace.WriteByte('\n')
		}, Options{Shards: 4})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		checkLeaks(t, d, before)
		return trace.String(), res
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 {
		t.Errorf("emission order differs between identical runs")
	}
	if fmt.Sprintf("%+v", r1.Load) != fmt.Sprintf("%+v", r2.Load) {
		t.Errorf("LoadStats differ:\n%+v\n%+v", r1.Load, r2.Load)
	}
	if r1.Emitted != r2.Emitted || r1.ExecStats != r2.ExecStats || r1.TotalStats != r2.TotalStats {
		t.Errorf("results differ: %+v vs %+v", r1, r2)
	}
}

// skewedRows builds a binary join R(0,1) ⋈ S(1,2) where one value of the
// join attribute carries `heavy` of the tuples on each side.
func skewedRows(g *hypergraph.Graph, rng *rand.Rand, n, heavy, dom int) map[int][]tuple.Tuple {
	rows := map[int][]tuple.Tuple{}
	for _, e := range g.Edges() {
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(e.Attrs))
			for j, a := range e.Attrs {
				if a == 1 { // the shared attribute of Line(2)
					if i < heavy {
						t[j] = 0
					} else {
						t[j] = int64(1 + rng.Intn(dom))
					}
				} else {
					t[j] = int64(rng.Intn(dom * 4))
				}
			}
			rows[e.ID] = append(rows[e.ID], t)
		}
	}
	return rows
}

// Heavy-hitter splitting must keep the distribute round balanced on skewed
// input, and disabling it must demonstrably lose that balance.
func TestShardHeavySplitBalancesLoad(t *testing.T) {
	g := hypergraph.Line(2)
	rng := rand.New(rand.NewSource(5))
	rows := skewedRows(g, rng, 200, 150, 40) // value 0 carries 150/200 per side
	ref := reference(t, g, rows, core.Options{})

	split, resOn := sharded(t, g, rows, Options{Shards: 4})
	noSplit, resOff := sharded(t, g, rows, Options{Shards: 4, NoHeavySplit: true})
	if split != ref || noSplit != ref {
		t.Fatalf("rows diverge: split %+v, nosplit %+v, want %+v", split, noSplit, ref)
	}
	if resOn.Load.HeavyValues == 0 || resOn.Load.SplitTuples == 0 {
		t.Fatalf("expected heavy values to be split, got %+v", resOn.Load)
	}
	if resOff.Load.HeavyValues != 0 {
		t.Fatalf("NoHeavySplit still split values: %+v", resOff.Load)
	}
	on, off := resOn.Load.Rounds[0], resOff.Load.Rounds[0]
	if on.Ratio() >= off.Ratio() {
		t.Errorf("splitting did not improve balance: ratio %.2f with split, %.2f without",
			on.Ratio(), off.Ratio())
	}
	// Without splitting the heavy value pins ~150 tuples per side to one
	// server; with splitting the maximum stays within a small factor of the
	// instance-optimal bound (broadcast co-partners cost at most the heavy
	// co-partner side).
	if off.Max() < 300 {
		t.Errorf("unsplit heavy value should overload one server: max %d", off.Max())
	}
	if on.Ratio() > 3.0 {
		t.Errorf("split distribute round too skewed: max %d vs bound %d (%.2f)",
			on.Max(), on.Bound, on.Ratio())
	}
}

// Anchor mode: queries with no join attribute (single relation, pure cross
// product) deal the anchor relation round-robin and stay exactly-once.
func TestShardAnchorMode(t *testing.T) {
	single := hypergraph.MustNew([]*hypergraph.Edge{{ID: 0, Name: "R", Attrs: []int{0, 1}}})
	crossG := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "R", Attrs: []int{0, 1}},
		{ID: 1, Name: "S", Attrs: []int{2, 3}},
	})
	for name, g := range map[string]*hypergraph.Graph{"single": single, "cross": crossG} {
		rng := rand.New(rand.NewSource(9))
		rows := uniformRows(g, rng, 60, 12)
		ref := reference(t, g, rows, core.Options{})
		got, res := sharded(t, g, rows, Options{Shards: 3})
		if got != ref {
			t.Errorf("%s: rows %d fp %x, want rows %d fp %x", name, got.rows, got.fp, ref.rows, ref.fp)
		}
		if res.Load.PartitionAttr != -1 || res.Load.AnchorEdge != 0 {
			t.Errorf("%s: expected anchor mode on edge 0, got %+v", name, res.Load)
		}
	}
}

// A mixed query where one component holds the partition attribute and another
// is broadcast entirely (cross product across components).
func TestShardCrossComponentBroadcast(t *testing.T) {
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "R", Attrs: []int{0, 1}},
		{ID: 1, Name: "S", Attrs: []int{1, 2}},
		{ID: 2, Name: "T", Attrs: []int{3, 4}},
	})
	rng := rand.New(rand.NewSource(13))
	rows := uniformRows(g, rng, 40, 5)
	ref := reference(t, g, rows, core.Options{})
	got, res := sharded(t, g, rows, Options{Shards: 4})
	if got != ref {
		t.Errorf("rows %d fp %x, want rows %d fp %x", got.rows, got.fp, ref.rows, ref.fp)
	}
	if res.Load.PartitionAttr != 1 {
		t.Errorf("expected partition on v1, got %+v", res.Load)
	}
	if res.Load.BroadcastRelations == 0 || res.Load.BroadcastTuples == 0 {
		t.Errorf("expected the disconnected component to be broadcast: %+v", res.Load)
	}
}

// Relations at or below the replication threshold are broadcast even when
// they contain the partition attribute; results stay exactly-once because the
// largest relation remains hashed.
func TestShardBroadcastThreshold(t *testing.T) {
	g := hypergraph.Line(2)
	rng := rand.New(rand.NewSource(17))
	rows := uniformRows(g, rng, 300, 10)
	rows[1] = rows[1][:5] // S is tiny: cheaper to replicate than co-partition
	ref := reference(t, g, rows, core.Options{})
	got, res := sharded(t, g, rows, Options{Shards: 4, BroadcastTuples: 10})
	if got != ref {
		t.Errorf("rows %d fp %x, want rows %d fp %x", got.rows, got.fp, ref.rows, ref.fp)
	}
	if res.Load.BroadcastRelations != 1 || res.Load.HashedRelations != 1 {
		t.Errorf("expected 1 broadcast + 1 hashed relation, got %+v", res.Load)
	}
}

// Empty relations and empty instances must flow through every phase.
func TestShardEmptyInput(t *testing.T) {
	g := hypergraph.Line(2)
	rows := map[int][]tuple.Tuple{0: {{1, 2}}, 1: nil}
	ref := reference(t, g, rows, core.Options{})
	got, res := sharded(t, g, rows, Options{Shards: 4})
	if got != ref || res.Emitted != 0 {
		t.Errorf("empty side: got %+v res %+v", got, res)
	}
}

func TestShardBadCount(t *testing.T) {
	g := hypergraph.Line(2)
	d := extmem.NewDisk(testCfg)
	in := buildInstance(d, g, uniformRows(g, rand.New(rand.NewSource(1)), 10, 4))
	for _, p := range []int{0, -1, MaxShards + 1} {
		if _, err := Run(g, in, nil, Options{Shards: p}); err == nil {
			t.Errorf("Shards=%d: expected error", p)
		}
	}
}

// Cancellation before the run aborts during the coordinator's scans; the
// typed error surfaces and nothing leaks.
func TestShardCancellation(t *testing.T) {
	g := hypergraph.Line(3)
	before := runtime.NumGoroutine()
	d := extmem.NewDisk(testCfg)
	in := buildInstance(d, g, uniformRows(g, rand.New(rand.NewSource(2)), 200, 6))
	ctx, cancel := context.WithCancel(context.Background())
	stop := d.WatchContext(ctx)
	defer stop()
	cancel()
	_, err := Run(g, in, nil, Options{Shards: 4})
	if !errors.Is(err, extmem.ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got %v", err)
	}
	checkLeaks(t, d, before)
}
