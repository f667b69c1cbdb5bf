package core

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

// runMemoL5 evaluates a fresh seed-7 uniform L5 instance (a multi-branch
// exhaustive subject) under the given options, on a disk that carries an
// operator memo when memo is set, returning the Result, the emitted rows in
// emission order, the memo counters and the disk's transfer ledger.
func runMemoL5(t *testing.T, memo bool, opts Options) (*Result, []string, opcache.Stats, extmem.XferStats) {
	t.Helper()
	d := extmem.NewDisk(extmem.Config{M: 64, B: 8})
	if memo {
		opcache.Enable(d)
	}
	rng := rand.New(rand.NewSource(7))
	g, in := workload.LineUniform(d, rng, 5, 128, 32)
	var rows []string
	r, err := Run(g, in, func(a tuple.Assignment) {
		rows = append(rows, a.String())
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cs opcache.Stats
	if m := opcache.Of(d); m != nil {
		cs = m.Stats()
	}
	return r, rows, cs, d.Transfers()
}

// A run with the memo on must reproduce the memo-off exhaustive run exactly:
// Result, stats, and the emitted rows in their emission order, while it
// performs far fewer reads: the branches after the first replay the sorts,
// semijoins and chunk loads they repeat, so fewer than a fifth of the
// memo-off run's reads reach the disk (over a quarter did while chunk loads
// were not memoized). The comparison pins
// NoPrune: a replayed tape charges its segments in recorded read/write order
// while a real run interleaves them, so a budget abort mid-operator can land
// on a different point of the read/write split (the IOs total is clamped
// identically either way). Full TotalStats equality across memo modes is
// therefore an unpruned contract; the pruned-mode counterpart (IOs()-level
// equality) lives in prune_test.go.
func TestMemoModesBitIdentical(t *testing.T) {
	ref, refRows, _, refX := runMemoL5(t, false, Options{Strategy: StrategyExhaustive, NoPrune: true})
	if ref.Branches < 4 {
		t.Fatalf("want a multi-branch subject, got %d branches", ref.Branches)
	}
	t.Run("on", func(t *testing.T) {
		r, rows, cs, x := runMemoL5(t, true, Options{Strategy: StrategyExhaustive, NoPrune: true})
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("Result = %+v, want %+v", r, ref)
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Fatalf("emitted rows diverge (%d vs %d)", len(rows), len(refRows))
		}
		if cs.Hits == 0 {
			t.Errorf("the memo replayed nothing: %+v", cs)
		}
		if refX.ReplayedReads != 0 || x.TotalReads() != refX.TotalReads() || 5*x.Reads >= refX.Reads {
			t.Errorf("memo on performed %d of %d reads, memo off %d of %d; want under a fifth with the memo on",
				x.Reads, x.TotalReads(), refX.Reads, refX.TotalReads())
		}
	})
}

// A dry (planning-only) branch must charge exactly what the wet run of the
// same policy charges, per phase: result enumeration binds in-memory tuples
// and never touches the disk, so the dry executor's skip of the bind chain
// may not move a single counter. This is the invariant that lets the
// exhaustive strategy trust dry-run costs when picking the winning branch.
func TestDryRunChargesMatchWetRun(t *testing.T) {
	for _, strat := range []Strategy{StrategyFirst, StrategySmallest} {
		for seed := int64(0); seed < 4; seed++ {
			run := func(dry bool) (extmem.Stats, map[string]extmem.Stats) {
				d := extmem.NewDisk(extmem.Config{M: 32, B: 4})
				d.EnablePhases()
				rng := rand.New(rand.NewSource(seed))
				var g, in = lineInstance(d, rng, 4, 96, 12)
				if seed%2 == 1 {
					// Odd seeds have heavy values instead.
					g, in = workload.Line3WorstCase(d, 64, 64)
				}
				ex := &executor{
					emit:    func(tuple.Assignment) {},
					nAttrs:  g.MaxAttr() + 1,
					chooser: staticChooser(strat),
					dry:     dry,
				}
				d.ResetStats()
				d.ResetPhases()
				if err := ex.run(g, in); err != nil {
					t.Fatal(err)
				}
				return d.Stats(), d.PhaseStats()
			}
			wet, wetPh := run(false)
			dry, dryPh := run(true)
			if wet != dry {
				t.Fatalf("strategy %v seed %d: dry %+v, wet %+v", strat, seed, dry, wet)
			}
			if !reflect.DeepEqual(wetPh, dryPh) {
				t.Fatalf("strategy %v seed %d: phase stats dry %+v, wet %+v", strat, seed, dryPh, wetPh)
			}
		}
	}
}

// Branch-prefix reuse: the exhaustive odometer varies the LAST decision
// first, so consecutive branches share long decision prefixes. Since a memo
// replay clones outputs preserving (ContentID, Version), a hit on the first
// operator of a shared prefix makes every downstream operator's inputs
// identical too — the whole prefix cascades into fast-path hits. Each branch
// past the first must therefore reuse at least its shared prefix head, and
// on this workload replayed work dominates recomputation.
func TestBranchPrefixReuse(t *testing.T) {
	r, _, cs, _ := runMemoL5(t, true, Options{Strategy: StrategyExhaustive})
	if r.Branches < 4 {
		t.Fatalf("want a multi-branch subject, got %d branches", r.Branches)
	}
	if cs.Hits < int64(r.Branches-1) {
		t.Fatalf("hits = %d across %d branches: branch prefixes not reused", cs.Hits, r.Branches)
	}
	if cs.Hits <= cs.Misses {
		t.Fatalf("hits %d <= misses %d: expected replay to dominate across %d branches",
			cs.Hits, cs.Misses, r.Branches)
	}
	if cs.Evictions != 0 {
		t.Fatalf("the memo evicted %d entries", cs.Evictions)
	}
}

// Run and RunLine attach no memo of their own: on a disk without one every
// operator runs for real and nothing is replayed, and on a disk that carries
// one, that memo is the one that records the hits.
func TestRunUsesTheDisksMemo(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*hypergraph.Graph, relation.Instance, Emit, Options) (*Result, error)
	}{{"Run", Run}, {"RunLine", RunLine}} {
		run := func(memo bool) (*extmem.Disk, *opcache.Memo) {
			d := extmem.NewDisk(extmem.Config{M: 64, B: 8})
			var m *opcache.Memo
			if memo {
				m = opcache.Enable(d)
			}
			g, in := workload.LineUniform(d, rand.New(rand.NewSource(7)), 5, 128, 32)
			if _, err := c.run(g, in, nil, Options{Strategy: StrategyExhaustive}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return d, m
		}
		d, _ := run(false)
		if opcache.Of(d) != nil {
			t.Errorf("%s attached a memo to a disk built without one", c.name)
		}
		if x := d.Transfers(); x.ReplayedReads+x.ReplayedWrites != 0 {
			t.Errorf("%s without a memo replayed %d/%d transfers", c.name, x.ReplayedReads, x.ReplayedWrites)
		}
		d, m := run(true)
		if opcache.Of(d) != m {
			t.Errorf("%s replaced the disk's memo", c.name)
		}
		if x := d.Transfers(); m.Stats().Hits == 0 || x.ReplayedReads+x.ReplayedWrites == 0 {
			t.Errorf("%s: the disk's memo recorded %+v and replayed %d/%d transfers, want hits",
				c.name, m.Stats(), x.ReplayedReads, x.ReplayedWrites)
		}
	}
}
