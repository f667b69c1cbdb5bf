package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/shard"
	"acyclicjoin/internal/tuple"
	"acyclicjoin/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:       "E29",
		Artifact: "MPC per-round load vs the instance-optimal bound (arXiv:1903.09717 §4; skew per arXiv:1310.3314)",
		Title:    "Shard-parallel execution: max load vs ceil(N/p), heavy-hitter splitting on/off",
		Run:      runE29,
	})
}

// shardWorkload is one E29 input family. Every generator is
// deterministic in (Params, seed), so the table reproduces byte for byte.
type shardWorkload struct {
	name string
	// build creates the query and instance on d; rows scale with p.
	build func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance)
}

// shardWorkloads: a uniform L2 join (hashing alone balances it) and a
// Zipf-skewed L2 join whose dominant join value pins the load to one server
// unless the heavy-hitter machinery splits it.
var shardWorkloads = []shardWorkload{
	{"L2 uniform", func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		n := p.M * 4 * p.Scale
		g := hypergraph.Line(2)
		return g, relation.Instance{
			0: workload.UniformPairs(d, rng, 0, 1, n, n, n),
			1: workload.UniformPairs(d, rng, 1, 2, n, n, n),
		}
	}},
	{"L2 zipf s=2", func(p Params, d *extmem.Disk, rng *rand.Rand) (*hypergraph.Graph, relation.Instance) {
		n := p.M * 2 * p.Scale
		dom := n / 8
		g := hypergraph.Line(2)
		return g, relation.Instance{
			// R's join values are uniform (light co-partner side); S's are
			// Zipf with exponent 2, so the top value alone carries over half
			// of S.
			0: workload.UniformPairs(d, rng, 0, 1, n, dom, n),
			1: workload.ZipfPairs(d, rng, 1, 2, dom, n, n, 2.0),
		}
	}},
}

// shardArm runs workload w across shards servers (1 server still pays
// distribution) and fingerprints the emitted rows order-insensitively.
type shardArm struct {
	res  *shard.Result
	rows int64
	fp   uint64
}

func runShardArm(p Params, wl shardWorkload, seed int64, shards int, noSplit bool) (shardArm, error) {
	d := newDisk(p)
	rng := rand.New(rand.NewSource(p.Seed + seed))
	restore := d.Suspend()
	g, in := wl.build(p, d, rng)
	restore()
	d.ResetStats()
	var arm shardArm
	r, err := shard.Run(g, in, func(a tuple.Assignment) {
		h := fnv.New64a()
		h.Write([]byte(a.String()))
		arm.fp += h.Sum64()
		arm.rows++
	}, shard.Options{Shards: shards, Core: core.Options{Strategy: core.StrategySmallest}, NoHeavySplit: noSplit})
	arm.res = r
	return arm, err
}

// runShardBase is the honest single-server baseline: the same workload
// evaluated by core.Run directly, no distribution round.
func runShardBase(p Params, wl shardWorkload, seed int64) (shardArm, error) {
	d := newDisk(p)
	rng := rand.New(rand.NewSource(p.Seed + seed))
	restore := d.Suspend()
	g, in := wl.build(p, d, rng)
	restore()
	d.ResetStats()
	var arm shardArm
	_, err := core.Run(g, in, func(a tuple.Assignment) {
		h := fnv.New64a()
		h.Write([]byte(a.String()))
		arm.fp += h.Sum64()
		arm.rows++
	}, core.Options{Strategy: core.StrategySmallest})
	return arm, err
}

var e29ShardCounts = []int{1, 2, 4, 8}

func runE29(p Params) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{
		Title: "E29: shard-parallel MPC load vs instance-optimal bound ceil(N/p)",
		Header: []string{"workload", "p", "split", "rows", "N", "max load", "bound", "ratio",
			"repl", "heavy", "compute max/bound", "identical"},
	}
	for w, wl := range shardWorkloads {
		base, err := runShardBase(p, wl, int64(w))
		if err != nil {
			return nil, fmt.Errorf("E29 %s unsharded: %w", wl.name, err)
		}
		for _, shards := range e29ShardCounts {
			splits := []bool{false}
			if shards > 1 {
				splits = []bool{false, true} // with and without heavy-hitter splitting
			}
			for _, noSplit := range splits {
				arm, err := runShardArm(p, wl, int64(w), shards, noSplit)
				if err != nil {
					return nil, fmt.Errorf("E29 %s x%d: %w", wl.name, shards, err)
				}
				if arm.rows != base.rows || arm.fp != base.fp {
					return nil, fmt.Errorf("E29 %s x%d (nosplit=%v): emitted %d rows (fp %x), unsharded %d (fp %x)",
						wl.name, shards, noSplit, arm.rows, arm.fp, base.rows, base.fp)
				}
				dist := arm.res.Load.Rounds[0]
				compute := arm.res.Load.Rounds[1]
				split := "on"
				if noSplit {
					split = "off"
				}
				t.AddRow(wl.name, shards, split, arm.rows,
					arm.res.Load.InputTuples, dist.Max(), dist.Bound,
					fmt.Sprintf("%.2f", dist.Ratio()), fmt.Sprintf("%.2f", arm.res.Load.Replication),
					arm.res.Load.HeavyValues, fmt.Sprintf("%.2f", compute.Ratio()), "yes")
			}
		}
	}
	t.Notes = append(t.Notes,
		"max load = most tuples any server receives in the distribute round; bound = ceil(N/p), the instance-optimal load",
		"split off: every tuple goes to its hash owner, so a heavy join value pins its whole frequency to one server (ratio grows with p)",
		"split on: a value above N_hashed/p is dealt round-robin with its (light) co-partner side replicated, holding the ratio near 1 + broadcast overhead",
		"compute max/bound = slowest server's charged block I/Os over the perfect p-way split of the actually performed work",
		"identical = emitted multiset matches the unsharded run via order-insensitive per-row FNV fingerprint; a mismatch aborts with an error")
	return t, nil
}
