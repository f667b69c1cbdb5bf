package harness

import (
	"fmt"
	"math/rand"
	"sort"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E19",
		Artifact: "cost structure (Õ decomposition)",
		Title:    "Phase breakdown: where Algorithm 1/2's I/Os go (sort vs scan vs NLJ)",
		Run:      runE19,
	})
	Register(&Experiment{
		ID:       "E20",
		Artifact: "Section 2.3 (heavy/light split) — ablation",
		Title:    "Ablation: Algorithm 2 with the heavy/light split disabled, on skew",
		Run:      runE20,
	})
	Register(&Experiment{
		ID:       "E21",
		Artifact: "Table 1 M-dependence",
		Title:    "Memory sweep: L3 worst-case I/O scales as 1/M",
		Run:      runE21,
	})
	Register(&Experiment{
		ID:       "E22",
		Artifact: "full reduction preprocessing — ablation",
		Title:    "Ablation: running on dangling-heavy inputs with and without reduction",
		Run:      runE22,
	})
}

func runE19(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E19: per-phase I/O breakdown (innermost phase label wins)",
		Header: []string{"workload", "alg", "phase", "reads", "writes", "share"},
	}
	type runCase struct {
		name  string
		setup func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance)
		alg   string
		run   func(g *hypergraph.Graph, in relation.Instance) error
	}
	n := p.M * 2 * p.Scale
	cases := []runCase{
		{
			name: "L3 worst",
			setup: func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
				g, in := workload.Line3WorstCase(d, n, n)
				return g, in
			},
			alg: "Algorithm 1",
			run: func(g *hypergraph.Graph, in relation.Instance) error {
				return core.Line3(g, in, func(tuple.Assignment) {})
			},
		},
		{
			name: "L3 worst",
			setup: func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
				g, in := workload.Line3WorstCase(d, n, n)
				return g, in
			},
			alg: "Algorithm 2 (greedy)",
			run: func(g *hypergraph.Graph, in relation.Instance) error {
				_, err := core.Run(g, in, nil,
					core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
				return err
			},
		},
		{
			name: "L3 zipf",
			setup: func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
				rng := rand.New(rand.NewSource(p.Seed + 19))
				g := hypergraph.Line(3)
				in := relation.Instance{
					0: workload.ZipfPairs(d, rng, 0, 1, n, n, n, 1.2),
					1: workload.ZipfPairs(d, rng, 1, 2, n, n, n, 1.2),
					2: workload.ZipfPairs(d, rng, 2, 3, n, n, n, 1.2),
				}
				return g, in
			},
			alg: "Algorithm 2 (greedy) after reduce",
			run: func(g *hypergraph.Graph, in relation.Instance) error {
				red, err := reducer.FullReduce(g, in)
				if err != nil {
					return err
				}
				_, err = core.Run(g, red, nil,
					core.Options{Strategy: core.StrategySmallest, AssumeReduced: true})
				return err
			},
		},
	}
	for _, c := range cases {
		d := ms.disk(p)
		d.EnablePhases()
		g, in := c.setup(d)
		d.ResetStats()
		d.ResetPhases()
		if err := c.run(g, in); err != nil {
			return nil, err
		}
		phases := d.PhaseStats()
		total := d.Stats().IOs()
		var names []string
		for ph := range phases {
			names = append(names, ph)
		}
		sort.Strings(names)
		for _, ph := range names {
			s := phases[ph]
			share := "-"
			if total > 0 {
				share = fmt.Sprintf("%.0f%%", 100*float64(s.IOs())/float64(total))
			}
			t.AddRow(c.name, c.alg, ph, s.Reads, s.Writes, share)
		}
	}
	t.Notes = append(t.Notes,
		"'sort' is the log_{M/B} overhead the paper's Õ suppresses; 'nested-loop' is the output-proportional work the bounds charge")
	return t, nil
}

func runE20(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E20: heavy/light split ablation on skewed L3 (one dominant hub value)",
		Header: []string{"hub position", "hub fraction", "variant", "IOs", "results"},
	}
	// Per HEAVY value the split's recursion touches only R2's restriction
	// view. Its light chunks hold whole value groups in increasing order,
	// so their filters of R2 are one merge pass. The no-split variant's
	// plain M-chunks can split a value, so each filters R2 from its first
	// tuple up to the chunk's last value. R1's hub value has a TINY R2
	// group, while R2 is large on other values. At the bottom of the value
	// order (v1=0) a no-split chunk of hub tuples reads only R2's first
	// blocks; at the top (above every other R1/R2 value) it re-reads all of
	// R2, the re-read §2.3's split avoids. The two positions share every
	// other tuple. Left unreduced deliberately: reduction would strip R2's
	// bulk.
	n := p.M * 8 * p.Scale
	for _, pos := range []struct {
		name string
		hub  int64
	}{{"bottom", 0}, {"top", int64(4*n + 1)}} {
		for _, hubPct := range []int{0, 50, 90} {
			build := func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
				g := hypergraph.Line(3)
				rng := rand.New(rand.NewSource(p.Seed + int64(hubPct)))
				b1 := relation.NewBuilder(d, tuple.Schema{0, 1})
				for i := 0; i < n; i++ {
					v := int64(1 + rng.Intn(4*n))
					if rng.Intn(100) < hubPct {
						v = pos.hub
					}
					b1.Add(tuple.Tuple{int64(i), v})
				}
				b2 := relation.NewBuilder(d, tuple.Schema{1, 2})
				for i := 0; i < 8; i++ {
					b2.Add(tuple.Tuple{pos.hub, int64(i % 64)}) // tiny hub group
				}
				for i := 0; i < 4*n; i++ {
					b2.Add(tuple.Tuple{int64(1 + rng.Intn(4*n)), int64(rng.Intn(64))})
				}
				in := relation.Instance{
					0: b1.Finish(),
					1: b2.Finish(),
					2: workload.UniformPairs(d, rng, 2, 3, 64, 64, 512),
				}
				return g, in
			}
			var base int64
			for _, variant := range []struct {
				name    string
				disable bool
			}{{"with split (paper)", false}, {"no split (ablation)", true}} {
				d := ms.disk(p)
				g, in := build(d)
				d.ResetStats()
				r, err := core.Run(g, in, nil, core.Options{
					Strategy:          core.StrategySmallest,
					DisableHeavySplit: variant.disable,
				})
				if err != nil {
					return nil, err
				}
				res := r.Emitted
				if variant.disable && res != base {
					return nil, fmt.Errorf("E20: ablation changed results: %d vs %d", res, base)
				}
				base = res
				t.AddRow(pos.name, fmt.Sprintf("%d%%", hubPct), variant.name, r.ExecStats.IOs(), res)
			}
		}
	}
	t.Notes = append(t.Notes,
		"the split's light chunks filter R2 in one merge pass; each no-split chunk re-reads R2 up to its last value: for a hub at the bottom of the value order that is R2's first block, for a hub at the top all of R2",
		"both variants compute identical results at every point")
	return t, nil
}

func runE21(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E21: L3 worst case, fixed N, sweeping M: I/O * M should be flat",
		Header: []string{"M", "IOs", "bound N^2/(MB)", "ratio", "IOs*M"},
	}
	n := 2048 * p.Scale
	for _, m := range []int{64, 128, 256, 512} {
		d := newBackendDisk(p, extmem.Config{M: m, B: p.B})
		ms = append(ms, d)
		g, in := workload.Line3WorstCase(d, n, n)
		var res int64
		st, err := measure(d, func() error { return core.Line3(g, in, countEmit(&res)) })
		if err != nil {
			return nil, err
		}
		bound := float64(n) * float64(n) / (float64(m) * float64(p.B))
		t.AddRow(m, st.IOs(), bound, Ratio(st.IOs(), bound), st.IOs()*int64(m))
	}
	t.Notes = append(t.Notes,
		"while the output term N²/(MB) dominates, doubling M halves the I/O (Table 1's denominators); at large M the linear and sort terms take over and IOs*M bends upward")
	return t, nil
}

func runE22(p Params) (_ *Table, err error) {
	var ms machines
	defer ms.close(&err)
	p = p.WithDefaults()
	t := &Table{
		Title:  "E22: full-reduction ablation on dangling-heavy L4 inputs",
		Header: []string{"dangling fraction", "variant", "IOs", "results"},
	}
	n := p.M * 4 * p.Scale
	for _, danglePct := range []int{0, 80} {
		build := func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
			g := hypergraph.Line(4)
			rng := rand.New(rand.NewSource(p.Seed + int64(danglePct)))
			in := relation.Instance{}
			// A live core of values [0,live) that joins through; dangling
			// tuples use values >= live that never match downstream.
			live := 48
			for i := 0; i < 4; i++ {
				b := relation.NewBuilder(d, tuple.Schema{i, i + 1})
				for k := 0; k < n; k++ {
					lo, hi := int64(rng.Intn(live)), int64(rng.Intn(live))
					if rng.Intn(100) < danglePct {
						hi = int64(live + rng.Intn(n)) // right end dangles
					}
					b.Add(tuple.Tuple{lo, hi})
				}
				in[i] = b.Finish()
			}
			// The last relation's right attribute is unique; dangling there
			// means values whose LEFT side never matches, so flip roles.
			return g, in
		}
		var want int64 = -1
		for _, variant := range []struct {
			name   string
			reduce bool
		}{{"with full reduce (paper)", true}, {"no reduce (ablation)", false}} {
			d := ms.disk(p)
			g, in := build(d)
			d.ResetStats()
			work := in
			if variant.reduce {
				red, err := reducer.FullReduce(g, in)
				if err != nil {
					return nil, err
				}
				work = red
			}
			r, err := core.Run(g, work, nil, core.Options{
				Strategy:      core.StrategySmallest,
				AssumeReduced: variant.reduce,
			})
			if err != nil {
				return nil, err
			}
			res := r.Emitted
			if want >= 0 && res != want {
				return nil, fmt.Errorf("E22: reduction changed results: %d vs %d", res, want)
			}
			want = res
			total := d.Stats().IOs()
			t.AddRow(fmt.Sprintf("%d%%", danglePct), variant.name, total, res)
		}
	}
	t.Notes = append(t.Notes,
		"reduction costs a few sorted passes but shrinks everything downstream; on dangling-heavy inputs it pays for itself",
		"results are identical either way: correctness never depends on reduction")
	return t, nil
}
