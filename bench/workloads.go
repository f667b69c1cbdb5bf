package main

import (
	"fmt"
	"math/rand"
	"sort"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	gen "acyclicjoin/internal/workload"
)

// Machine shape shared by every workload: small enough that the inputs
// exceed memory many times over, so the external-memory algorithms (and not
// an in-memory shortcut) do the work.
const (
	benchM = 256
	benchB = 16
)

// workload is one seeded input set plus the way the benchmark drives it.
type workload struct {
	name string
	// why is the one-line reason the workload is in the set; BENCHMARK.json
	// carries the same text.
	why string
	// backend is the storage engine ("sim" or "file").
	backend string
	// emitRows makes the public emit callback keep every Row; otherwise the
	// queries count only (emit == nil).
	emitRows bool
	// warmup queries run before the timer starts; traced is the length of
	// the traced pass and of the profiled pass.
	warmup, traced int
	inputs         func(rng *rand.Rand) []relSpec
}

// relSpec is one generated relation as the public API receives it.
type relSpec struct {
	name  string
	attrs []string
	rows  []tuple.Tuple
}

var workloads = []*workload{
	{
		name:    "tree-plan",
		why:     "non-line tree on sim: planner, memo and simulator bookkeeping on the critical path, device idle",
		backend: "sim", warmup: 10, traced: 20,
		inputs: func(rng *rand.Rand) []relSpec {
			return uniformRelations(rng, hypergraph.Lollipop(3), 1024, 256)
		},
	},
	{
		name:    "line3-emit",
		why:     "Figure-3 L3 on sim with every row kept: output-bound, row decoding dominates, planner and device idle",
		backend: "sim", emitRows: true, warmup: 10, traced: 20,
		inputs: func(rng *rand.Rand) []relSpec {
			g, in := gen.Line3WorstCase(scratchDisk(), 256, 256)
			return fromInstance(g, in)
		},
	},
	{
		name:    "line5-file",
		why:     "uniform L5 on the file backend, inputs far beyond the frame cache: scan, sort and device heavy",
		backend: "file", warmup: 10, traced: 20,
		inputs: func(rng *rand.Rand) []relSpec {
			g, in := gen.LineUniform(scratchDisk(), rng, 5, 2048, 1024)
			return fromInstance(g, in)
		},
	},
	{
		name:    "star-small-file",
		why:     "small star on the file backend, every relation fits the cache: fixed per-query costs dominate",
		backend: "file", warmup: 50, traced: 500,
		inputs: func(rng *rand.Rand) []relSpec {
			return uniformRelations(rng, hypergraph.StarQuery(3), 128, 32)
		},
	},
}

// shapeSeed fixes each workload's instance shape; the benchmark's seed then
// draws a relabelled copy of that shape (see relabel).
const shapeSeed = 42

// generate returns the workload's inputs for seed.
func (w *workload) generate(seed int64) []relSpec {
	return relabel(rand.New(rand.NewSource(seed)), w.inputs(rand.New(rand.NewSource(shapeSeed))))
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scratchDisk is a throwaway simulator disk for the internal/workload
// generators; only the tuples they produce are kept.
func scratchDisk() *extmem.Disk {
	return extmem.NewDisk(extmem.Config{M: benchM, B: benchB})
}

// attrName names internal attribute a for the public API.
func attrName(a hypergraph.Attr) string { return fmt.Sprintf("v%d", a) }

// uniformRelations gives every edge of g n distinct tuples drawn uniformly
// from dom values per attribute, edge by edge in ID order.
func uniformRelations(rng *rand.Rand, g *hypergraph.Graph, n, dom int) []relSpec {
	var rels []relSpec
	for _, e := range g.Edges() {
		r := relSpec{name: e.Name}
		for _, a := range e.Attrs {
			r.attrs = append(r.attrs, attrName(a))
		}
		seen := make(map[string]bool, n)
		for len(r.rows) < n {
			t := make(tuple.Tuple, len(e.Attrs))
			for i := range t {
				t[i] = int64(rng.Intn(dom))
			}
			if k := fmt.Sprint(t); !seen[k] {
				seen[k] = true
				r.rows = append(r.rows, t)
			}
		}
		rels = append(rels, r)
	}
	return rels
}

// fromInstance reads a generated instance back into memory, relation by
// relation in edge order, with columns in each relation's schema order.
func fromInstance(g *hypergraph.Graph, in relation.Instance) []relSpec {
	var rels []relSpec
	for _, e := range g.Edges() {
		r := in[e.ID]
		restore := r.Disk().Suspend()
		rows := relation.Contents(r)
		restore()
		spec := relSpec{name: e.Name, rows: rows}
		for _, a := range r.Schema() {
			spec.attrs = append(spec.attrs, attrName(a))
		}
		rels = append(rels, spec)
	}
	return rels
}

// relabel draws a fresh copy of a fixed instance shape: every attribute's
// values are renamed through a seeded, order-preserving injection into
// [0, 2^30), and each relation's tuples are shuffled. Order preservation
// keeps every comparison the algorithms make — hence every charged I/O and
// memo decision — the same as on the shape, so the count metrics repeat
// exactly across seeds while the values and input order differ.
func relabel(rng *rand.Rand, rels []relSpec) []relSpec {
	distinct := map[string]map[int64]bool{}
	var attrs []string
	for _, r := range rels {
		for j, a := range r.attrs {
			if distinct[a] == nil {
				distinct[a] = map[int64]bool{}
				attrs = append(attrs, a)
			}
			for _, t := range r.rows {
				distinct[a][t[j]] = true
			}
		}
	}
	maps := map[string]map[int64]int64{}
	for _, a := range attrs {
		old := make([]int64, 0, len(distinct[a]))
		for v := range distinct[a] {
			old = append(old, v)
		}
		sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
		drawn := map[int64]bool{}
		fresh := make([]int64, 0, len(old))
		for len(fresh) < len(old) {
			if v := rng.Int63n(1 << 30); !drawn[v] {
				drawn[v] = true
				fresh = append(fresh, v)
			}
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
		maps[a] = make(map[int64]int64, len(old))
		for i, v := range old {
			maps[a][v] = fresh[i]
		}
	}
	out := make([]relSpec, len(rels))
	for i, r := range rels {
		rows := make([]tuple.Tuple, len(r.rows))
		for k, t := range r.rows {
			nt := make(tuple.Tuple, len(t))
			for j, a := range r.attrs {
				nt[j] = maps[a][t[j]]
			}
			rows[k] = nt
		}
		rng.Shuffle(len(rows), func(x, y int) { rows[x], rows[y] = rows[y], rows[x] })
		out[i] = relSpec{name: r.name, attrs: r.attrs, rows: rows}
	}
	return out
}
