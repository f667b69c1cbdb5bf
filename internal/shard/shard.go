// Package shard executes one Berge-acyclic join across p simulated servers
// in the MPC (massively parallel computation) model of Hu & Yi's sequel paper
// (Instance and Output Optimal Parallel Algorithms for Acyclic Joins,
// arXiv:1903.09717): every server is an extmem child disk with its own memory
// allowance M, the input is distributed by hashing on a join attribute, and
// the figure of merit is the per-round maximum LOAD — the tuples a server
// receives — against the instance-optimal bound ceil(N/p).
//
// # Partitioning scheme
//
// One join attribute v* (the partition attribute) is chosen to maximize the
// total size of the relations containing it; ties break toward the smallest
// attribute ID so the choice is deterministic. Relations containing v* are
// hash-sharded on v* — every tuple goes to the server owning its v*-value —
// except relations at or below the broadcast threshold, which are cheaper to
// replicate everywhere than to co-partition (the classic broadcast join; at
// least one v*-relation, the largest, always stays hashed so result ownership
// is well defined). Relations not containing v* are replicated to every
// server. Queries with no join attribute at all (single relations, pure cross
// products) fall back to anchor mode: the first relation is dealt round-robin
// and everything else is replicated.
//
// # Exactly-once ownership
//
// A join result binds v* to some value a and contains one tuple from every
// relation; its v*-relation tuples all carry value a. For a light value every
// hashed relation's a-tuples live only on server hash(a), so the result is
// computed there and nowhere else. For a heavy value (see below) the split
// relation's a-tuples are dealt round-robin and every other hashed relation's
// a-tuples are replicated, so each result holds exactly one split-relation
// tuple and is computed exactly on the server holding it. Either way every
// result is emitted exactly once, which is what makes the sharded row
// multiset bit-identical to the unsharded run at any p.
//
// # Heavy-hitter splitting
//
// Hashing alone cannot balance skew: a value carrying more than a 1/p
// fraction of the input pins all of it to one server (Skew Strikes Back,
// arXiv:1310.3314). Mirroring the paper's §4 star machinery — heavy values of
// the center attribute get their own dedicated server groups — a value whose
// total frequency across the hashed relations exceeds HeavyFactor·N/p is
// split: the hashed relation with the most tuples of that value is dealt
// round-robin across all p servers and its co-partners' tuples of that value
// are replicated, capping the value's contribution to any one server at
// roughly count/p plus the (smaller) co-partner side.
//
// # Execution and merging
//
// Each server evaluates the full query on its fragment with core.Run on its
// own child disk, concurrently. Sub-instances of a reduced instance are not
// themselves reduced, so servers never assume reducedness. Results are
// buffered per server and replayed in server order — deterministic, and
// order-insensitive as a multiset — while the children's counters fold back
// into the parent with extmem.Disk.Absorb in the same fixed order.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// MaxShards bounds p; the simulation allocates one child disk and one result
// buffer per server, so this is a sanity cap, not a model limit.
const MaxShards = 256

// Options configures a sharded run.
type Options struct {
	// Shards is p, the number of simulated servers. 1 takes the bypass fast
	// path: with a single server the partition scan, the distribute round's
	// buffering, the child disk, and the per-server emission buffer are pure
	// overhead, so the query runs unsharded directly on the parent disk and
	// the Load telemetry reports Bypass with synthetic distribute/compute
	// rounds (trivially balanced: one server receives everything).
	Shards int
	// Core configures each server's local evaluation. AssumeReduced is
	// overridden to false: a server's fragment of a reduced instance is not
	// itself reduced, and the defensive semijoins are what keep dangling
	// broadcast tuples out of the output. The Shards=1 bypass is the
	// exception — its "fragment" is the whole instance, so the caller's
	// setting stands, exactly as in an unsharded run.
	Core core.Options
	// NoHeavySplit disables heavy-hitter splitting: every tuple of a hashed
	// relation goes to the server owning its value, however heavy. Correct,
	// but on skewed inputs the maximum load degrades to the heaviest value's
	// frequency instead of staying near N/p — experiment E29 measures the
	// difference.
	NoHeavySplit bool
	// BroadcastTuples is the replication threshold: a relation containing
	// the partition attribute is replicated instead of hashed when its size
	// is at or below this many tuples. 0 picks B (a single block): broadcast
	// adds a relation's full size to every server's load where hashing adds
	// a p-th of it, so only negligible relations are worth replicating.
	// Negative disables broadcasting of hashed-eligible relations entirely.
	BroadcastTuples int
	// HeavyFactor scales the heavy-hitter threshold: a value is heavy when
	// its total frequency across the hashed relations exceeds
	// HeavyFactor·N_hashed/p. 0 means 1.0.
	HeavyFactor float64
	// MaxRestarts bounds how many times each dead server may be replaced
	// before its failure is returned to the caller. A server dies restartably
	// when its local run aborts on a permanent injected model fault or on
	// device corruption; the coordinator then discards the dead child disk,
	// bills its charges and fault counters to the parent's recovery side
	// channel, and replays the dead server's exact fragment — the
	// deterministic assignment walk re-run for that one server — onto a
	// fresh child, which re-executes with fault injection disarmed. The
	// merged row multiset is bit-identical to the unsharded run;
	// cancellation, budget, ENOSPC, and dead-device aborts are never
	// restarted (the failed resource is shared, so a retry cannot help).
	// 0 means the default of 2 restarts per server; negative disables
	// restarting.
	MaxRestarts int
}

// RoundLoad is one communication/compute round's per-server load.
type RoundLoad struct {
	// Name identifies the round ("distribute", "compute").
	Name string
	// PerShard is the load of each server: tuples received for the
	// distribute round, charged block I/Os for the compute round.
	PerShard []int64
	// Bound is the balance reference: the instance-optimal ceil(N/p) for the
	// distribute round (every input tuple must reside somewhere), and the
	// perfect-balance ceil(total/p) of the actually performed work for the
	// compute round.
	Bound int64
}

// Max returns the round's maximum per-server load.
func (r RoundLoad) Max() int64 {
	var m int64
	for _, v := range r.PerShard {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the round's minimum per-server load.
func (r RoundLoad) Min() int64 {
	if len(r.PerShard) == 0 {
		return 0
	}
	m := r.PerShard[0]
	for _, v := range r.PerShard[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Total returns the summed load of the round.
func (r RoundLoad) Total() int64 {
	var t int64
	for _, v := range r.PerShard {
		t += v
	}
	return t
}

// Median returns the round's lower-median per-server load.
func (r RoundLoad) Median() int64 {
	if len(r.PerShard) == 0 {
		return 0
	}
	s := append([]int64(nil), r.PerShard...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// Ratio returns Max/Bound, the skew factor against the balance reference.
func (r RoundLoad) Ratio() float64 {
	if r.Bound <= 0 {
		return 0
	}
	return float64(r.Max()) / float64(r.Bound)
}

// LoadStats is the MPC load accounting of one sharded run; the root package
// surfaces it as Result.Shards and renders it in ExplainString.
type LoadStats struct {
	// Shards is p, the number of simulated servers.
	Shards int
	// PartitionAttr is the join attribute the input was hashed on, or -1 in
	// anchor mode (no join attribute exists).
	PartitionAttr int
	// AnchorEdge is the relation dealt round-robin in anchor mode, else -1.
	AnchorEdge int
	// Bypass reports the Shards=1 fast path: no distribution machinery ran,
	// the query executed unsharded on the parent disk, and the Rounds below
	// are synthetic (the whole input "received" by the one server, then the
	// run's charged I/Os).
	Bypass bool
	// HashedRelations and BroadcastRelations count how each relation was
	// distributed; they sum to the query's relation count (both zero on the
	// bypass, which distributes nothing).
	HashedRelations, BroadcastRelations int
	// InputTuples is the total input size N (after reduction).
	InputTuples int64
	// HeavyValues counts partition-attribute values split by the heavy-hitter
	// machinery; SplitTuples is how many tuples were dealt round-robin for
	// them, and HeavyBroadcastTuples how many co-partner tuples were
	// replicated on their behalf (counted once, not p times).
	HeavyValues          int
	SplitTuples          int64
	HeavyBroadcastTuples int64
	// BroadcastTuples is the total size of wholly replicated relations
	// (counted once, not p times).
	BroadcastTuples int64
	// Replication is total tuples received across servers divided by
	// InputTuples: 1.0 means no tuple traveled twice.
	Replication float64
	// Rounds is the per-round load breakdown: "distribute" (tuples received)
	// then "compute" (block I/Os charged by each server's local run).
	Rounds []RoundLoad
}

// Result is the outcome of a sharded run.
type Result struct {
	// Emitted counts join results delivered to emit (summed over servers).
	Emitted int64
	// ExecStats sums every server's executed-branch cost plus the
	// distribution writes; TotalStats additionally includes the servers'
	// planning dry-runs, mirroring core.Result's split.
	ExecStats, TotalStats extmem.Stats
	// Branches sums the peeling policies explored across servers.
	Branches int
	// Prune aggregates the servers' branch-and-bound telemetry.
	Prune core.PruneStats
	// ClampedChoices sums the servers' defensive chooser clamps.
	ClampedChoices int64
	// Load is the MPC load accounting.
	Load LoadStats
}

// Run evaluates the join (g, in) across opts.Shards simulated servers,
// invoking emit once per result in deterministic (server, local) order. The
// instance must live on a quiescent parent disk; the parent is charged for
// the coordinator's scans (heavy-hitter statistics and the distribution
// read), each child for the tuples it receives and the work it runs.
func Run(g *hypergraph.Graph, in relation.Instance, emit core.Emit, opts Options) (*Result, error) {
	p := opts.Shards
	if p < 1 || p > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1, %d]", p, MaxShards)
	}
	if !g.IsBergeAcyclic() {
		return nil, fmt.Errorf("shard: query %v is not Berge-acyclic", g)
	}
	if err := in.Validate(g, false); err != nil {
		return nil, err
	}
	parent := parentDisk(g, in)
	if parent == nil {
		// Every relation is empty and diskless; nothing to do.
		return &Result{Load: LoadStats{Shards: p, Bypass: p == 1, PartitionAttr: -1, AnchorEdge: -1}}, nil
	}
	if p == 1 {
		return runBypass(g, in, emit, opts, parent)
	}

	// The coordinator's scans (statistics + distribution) run outside
	// core.Run's catchers, so cancellation and permanent faults there would
	// travel as panics; CatchAbort converts them to typed errors and lets the
	// children be discarded instead of leaked.
	var plan *partitionPlan
	if _, err := parent.CatchAbort(func() error {
		plan = planPartition(g, in, p, opts)
		return nil
	}); err != nil {
		return nil, err
	}

	// Children are created serially while the parent is quiescent.
	children := make([]*extmem.Disk, p)
	for s := range children {
		children[s] = parent.NewChild()
	}

	res := &Result{}
	var insts []relation.Instance
	if _, err := parent.CatchAbort(func() error {
		insts = distribute(g, in, children, plan, &res.Load)
		return nil
	}); err != nil {
		for _, c := range children {
			c.Discard()
		}
		return nil, err
	}
	distStats := make([]extmem.Stats, p)
	for s, c := range children {
		distStats[s] = c.Stats()
	}

	// Compute round: every server runs the full query on its fragment,
	// concurrently. Fragments of a reduced instance are not reduced.
	copts := opts.Core
	copts.AssumeReduced = false
	outs := make([]shardOutcome, p)
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			runServer(g, insts[s], copts, &outs[s])
		}(s)
	}
	wg.Wait()

	// Restart round: replace servers that died restartably (permanent model
	// faults, device corruption) with fresh children running the identical
	// fragment. Serial and after the barrier, so the parent is quiescent for
	// NewChild and the re-distribution; the replay scans are billed to the
	// parent's recovery side channel, keeping the main Stats those of a
	// fault-free distribution.
	maxRestarts := opts.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 2
	}
	for s := 0; maxRestarts > 0 && s < p; s++ {
		for attempt := 0; outs[s].err != nil && restartable(outs[s].err) && attempt < maxRestarts; attempt++ {
			dead := children[s]
			fs := dead.FaultStats()
			st := dead.Stats()
			fs.RetryReads += st.Reads
			fs.RetryWrites += st.Writes
			parent.AddFaultStats(fs)
			parent.AddServerRestart()
			dead.Discard()
			fresh := parent.NewChild()
			fresh.DisarmFaults()
			children[s] = fresh
			var inst relation.Instance
			if rerr := parent.RecoveryScope(func() error {
				_, cerr := parent.CatchAbort(func() error {
					inst = distributeOne(g, in, fresh, plan, s, p)
					return nil
				})
				return cerr
			}); rerr != nil {
				outs[s] = shardOutcome{err: rerr}
				break
			}
			insts[s] = inst
			distStats[s] = fresh.Stats()
			outs[s] = shardOutcome{}
			runServer(g, inst, copts, &outs[s])
		}
	}

	// Deterministic fold-back in server order; children are quiescent after
	// the barrier, so even an aborted run absorbs every child (its partial
	// charges are part of the run's telemetry) and leaks nothing.
	compute := RoundLoad{Name: "compute", PerShard: make([]int64, p)}
	for s, c := range children {
		compute.PerShard[s] = c.Stats().Sub(distStats[s]).IOs()
		parent.Absorb(c)
		children[s] = nil
	}
	compute.Bound = ceilDiv(compute.Total(), int64(p))
	res.Load.Rounds = append(res.Load.Rounds, compute)
	for s := range outs {
		if outs[s].err != nil {
			return nil, fmt.Errorf("shard: server %d: %w", s, outs[s].err)
		}
	}

	// Replay emissions in server order: deterministic, and as a multiset
	// identical to the unsharded run by the ownership argument above.
	for s := range outs {
		o := &outs[s]
		res.Emitted += o.res.Emitted
		res.Branches += o.res.Branches
		res.Prune.Started += o.res.Prune.Started
		res.Prune.Pruned += o.res.Prune.Pruned
		res.Prune.Completed += o.res.Prune.Completed
		res.Prune.ChargedBeforeAbort += o.res.Prune.ChargedBeforeAbort
		res.ClampedChoices += o.res.ClampedChoices
		res.ExecStats = res.ExecStats.Add(distStats[s]).Add(o.res.ExecStats)
		res.TotalStats = res.TotalStats.Add(distStats[s]).Add(o.res.TotalStats)
		for _, a := range o.rows {
			emitOne(emit, a)
		}
	}
	return res, nil
}

// runBypass is the Shards=1 fast path. Hashing onto one server is the
// identity distribution, so the partition scan, the distribution read/write,
// the child disk, and the emission buffer would all be overhead with no
// balancing to measure: the query runs unsharded with core.Run directly on
// the parent disk, emitting in place. The charge profile is therefore exactly
// the unsharded run's — in particular the distribution writes the p>1 path
// bills are absent.
func runBypass(g *hypergraph.Graph, in relation.Instance, emit core.Emit, opts Options, parent *extmem.Disk) (*Result, error) {
	var n int64
	for _, id := range relation.SortedEdgeIDs(g) {
		n += int64(in[id].Len())
	}
	before := parent.Stats()
	r, err := core.Run(g, in, emit, opts.Core)
	if err != nil {
		return nil, err
	}
	return &Result{
		Emitted:        r.Emitted,
		ExecStats:      r.ExecStats,
		TotalStats:     r.TotalStats,
		Branches:       r.Branches,
		Prune:          r.Prune,
		ClampedChoices: r.ClampedChoices,
		Load:           BypassLoad(n, parent.Stats().Sub(before).IOs()),
	}, nil
}

// BypassLoad builds the LoadStats a Shards=1 bypass reports: synthetic
// "distribute" and "compute" rounds keep the two-round shape every consumer
// indexes, with the one server receiving all inputTuples (bound N, ratio 1)
// and charging computeIOs block I/Os. The root package reuses it when an
// explicit -shards 1 run takes the unsharded executor directly.
func BypassLoad(inputTuples, computeIOs int64) LoadStats {
	rep := 0.0
	if inputTuples > 0 {
		rep = 1.0
	}
	return LoadStats{
		Shards:        1,
		Bypass:        true,
		PartitionAttr: -1,
		AnchorEdge:    -1,
		InputTuples:   inputTuples,
		Replication:   rep,
		Rounds: []RoundLoad{
			{Name: "distribute", PerShard: []int64{inputTuples}, Bound: inputTuples},
			{Name: "compute", PerShard: []int64{computeIOs}, Bound: computeIOs},
		},
	}
}

// shardOutcome is one server's compute-round result.
type shardOutcome struct {
	res  *core.Result
	rows []tuple.Assignment
	err  error
}

// runServer is one server's goroutine body. core.Run already converts aborts
// (cancellation, faults, budget) into typed errors under CatchAbort; the
// recover here is the same last-resort net the branch explorer uses so an
// unexpected panic cannot kill the process through a bare goroutine.
func runServer(g *hypergraph.Graph, in relation.Instance, opts core.Options, out *shardOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("shard: panic in server: %v", r)
		}
	}()
	out.res, out.err = core.Run(g, in, func(a tuple.Assignment) {
		out.rows = append(out.rows, a.Clone())
	}, opts)
	if out.err == nil && out.res == nil {
		out.err = fmt.Errorf("shard: server returned no result")
	}
}

func emitOne(emit core.Emit, a tuple.Assignment) {
	if emit != nil {
		emit(a)
	}
}

// partitionPlan is the coordinator's distribution decision.
type partitionPlan struct {
	// attr is the partition attribute, or -1 for anchor mode.
	attr int
	// anchor is the edge dealt round-robin in anchor mode, else -1.
	anchor int
	// hashed marks the edges hash-sharded on attr; every other edge is
	// replicated to all servers.
	hashed map[int]bool
	// splitEdge maps each heavy value to the relation whose tuples of that
	// value are dealt round-robin (the hashed relation holding most of them);
	// other hashed relations replicate their tuples of that value.
	splitEdge map[int64]int
	// inputTuples is N, the total input size.
	inputTuples int64
}

// planPartition chooses the partition attribute, the broadcast set, and the
// heavy values. The frequency statistics cost one charged scan of each hashed
// relation on the parent disk — the coordinator's statistics round.
func planPartition(g *hypergraph.Graph, in relation.Instance, p int, opts Options) *partitionPlan {
	plan := &partitionPlan{attr: -1, anchor: -1, hashed: map[int]bool{}, splitEdge: map[int64]int{}}
	ids := relation.SortedEdgeIDs(g)
	for _, id := range ids {
		plan.inputTuples += int64(in[id].Len())
	}

	// Partition attribute: the join attribute covering the most input.
	bestCover := int64(-1)
	for _, a := range g.Attrs() {
		if !g.IsJoinAttr(a) {
			continue
		}
		var cover int64
		for _, e := range g.EdgesWith(a) {
			cover += int64(in[e.ID].Len())
		}
		if cover > bestCover {
			bestCover = cover
			plan.attr = a
		}
	}
	if plan.attr < 0 {
		// No join attribute: single relation or a pure cross product. Deal
		// the first relation round-robin, replicate the rest; each result
		// holds exactly one anchor tuple, so ownership still holds.
		plan.anchor = ids[0]
		return plan
	}

	// Hashed set: relations containing v* above the broadcast threshold. The
	// largest (ties toward the smallest edge ID) always stays hashed so that
	// light-value ownership never degenerates to all-broadcast duplication.
	// Auto threshold: only relations of at most one block. Broadcasting adds
	// a relation's FULL size to every server's load while hashing adds a
	// p-th of it, so replication never helps the max-load bound unless the
	// relation is negligible.
	threshold := int64(opts.BroadcastTuples)
	if opts.BroadcastTuples == 0 {
		threshold = int64(anyB(in, ids))
	}
	largest, largestN := -1, int64(-1)
	for _, e := range g.EdgesWith(plan.attr) {
		if n := int64(in[e.ID].Len()); n > largestN {
			largest, largestN = e.ID, n
		}
	}
	for _, e := range g.EdgesWith(plan.attr) {
		if e.ID == largest || int64(in[e.ID].Len()) > threshold {
			plan.hashed[e.ID] = true
		}
	}

	if opts.NoHeavySplit || p == 1 {
		return plan
	}

	// Heavy-hitter statistics: total frequency of each v*-value across the
	// hashed relations, and the per-relation counts that pick each heavy
	// value's split relation. One charged scan per hashed relation.
	factor := opts.HeavyFactor
	if factor <= 0 {
		factor = 1.0
	}
	var hashedN int64
	freq := map[int64]int64{}
	perEdge := map[int64]map[int]int64{}
	for _, id := range ids {
		if !plan.hashed[id] {
			continue
		}
		r := in[id]
		hashedN += int64(r.Len())
		col := r.Col(plan.attr)
		r.Scan(func(t tuple.Tuple) {
			v := t[col]
			freq[v]++
			pe := perEdge[v]
			if pe == nil {
				pe = map[int]int64{}
				perEdge[v] = pe
			}
			pe[id]++
		})
	}
	heavyAt := factor * float64(hashedN) / float64(p)
	for v, f := range freq {
		if float64(f) <= heavyAt {
			continue
		}
		best, bestN := -1, int64(-1)
		for _, id := range ids { // deterministic order
			if n := perEdge[v][id]; plan.hashed[id] && (n > bestN) {
				best, bestN = id, n
			}
		}
		plan.splitEdge[v] = best
	}
	return plan
}

// anyB returns the block size of the first non-empty relation's disk.
func anyB(in relation.Instance, ids []int) int {
	for _, id := range ids {
		if d := in[id].Disk(); d != nil {
			return d.B()
		}
	}
	return 0
}

// parentDisk returns the disk the instance lives on.
func parentDisk(g *hypergraph.Graph, in relation.Instance) *extmem.Disk {
	for _, e := range g.Edges() {
		if r := in[e.ID]; r != nil && r.Disk() != nil {
			return r.Disk()
		}
	}
	return nil
}

// assignKind classifies why a tuple landed on a server in the assignment walk.
type assignKind int

const (
	assignAnchor assignKind = iota
	assignBroadcast
	assignHashed
	assignSplit          // heavy value, dealt round-robin from its split relation
	assignHeavyBroadcast // heavy value, replicated from a co-partner relation
)

// forEachAssignment is the deterministic tuple-to-server assignment walk both
// distribution paths share: relations in sorted-ID order, tuples in scan
// order, with the anchor and heavy-hitter round-robin counters advancing over
// EVERY tuple. Because the counters never depend on who is listening, a
// replay that keeps only one server's share (distributeOne, on the restart
// path) reproduces that server's fragment bit-identically to the original
// full distribution. begin fires once per relation before its tuples; visit
// fires once per (tuple, receiving server).
func forEachAssignment(g *hypergraph.Graph, in relation.Instance, plan *partitionPlan, p int,
	begin func(id int), visit func(id, s int, t tuple.Tuple, kind assignKind)) {
	rrAnchor := 0
	rrHeavy := map[int64]int{}
	for _, id := range relation.SortedEdgeIDs(g) {
		r := in[id]
		begin(id)
		sendAll := func(t tuple.Tuple, kind assignKind) {
			for s := 0; s < p; s++ {
				visit(id, s, t, kind)
			}
		}
		switch {
		case plan.anchor == id:
			r.Scan(func(t tuple.Tuple) {
				visit(id, rrAnchor%p, t, assignAnchor)
				rrAnchor++
			})
		case !plan.hashed[id]:
			r.Scan(func(t tuple.Tuple) { sendAll(t, assignBroadcast) })
		default:
			col := r.Col(plan.attr)
			r.Scan(func(t tuple.Tuple) {
				v := t[col]
				if split, heavy := plan.splitEdge[v]; heavy {
					if split == id {
						visit(id, rrHeavy[v]%p, t, assignSplit)
						rrHeavy[v]++
					} else {
						sendAll(t, assignHeavyBroadcast)
					}
					return
				}
				visit(id, hashValue(v, p), t, assignHashed)
			})
		}
	}
}

// distribute reads every relation once on the parent (the communication
// round's send side) and appends each tuple to the receiving servers'
// builders (charged to each child: the receive side IS the load). Returns
// each server's sub-instance and fills the distribute-round LoadStats.
func distribute(g *hypergraph.Graph, in relation.Instance, children []*extmem.Disk,
	plan *partitionPlan, load *LoadStats) []relation.Instance {
	p := len(children)
	insts := make([]relation.Instance, p)
	for s := range insts {
		insts[s] = relation.Instance{}
	}
	dist := RoundLoad{Name: "distribute", PerShard: make([]int64, p)}
	load.Shards = p
	load.PartitionAttr = plan.attr
	load.AnchorEdge = plan.anchor
	load.InputTuples = plan.inputTuples
	load.HeavyValues = len(plan.splitEdge)

	var builders []*relation.Builder
	prev := -1
	finish := func() {
		if prev >= 0 {
			for s := range builders {
				insts[s][prev] = builders[s].Finish()
			}
		}
	}
	forEachAssignment(g, in, plan, p,
		func(id int) {
			finish()
			prev = id
			builders = make([]*relation.Builder, p)
			for s := range builders {
				builders[s] = relation.NewBuilder(children[s], in[id].Schema())
			}
			switch {
			case plan.anchor == id:
				load.HashedRelations++
			case !plan.hashed[id]:
				load.BroadcastRelations++
				load.BroadcastTuples += int64(in[id].Len())
			default:
				load.HashedRelations++
			}
		},
		func(id, s int, t tuple.Tuple, kind assignKind) {
			builders[s].Add(t)
			dist.PerShard[s]++
			switch kind {
			case assignSplit:
				load.SplitTuples++
			case assignHeavyBroadcast:
				if s == 0 { // once per tuple, not once per replica
					load.HeavyBroadcastTuples++
				}
			}
		})
	finish()
	dist.Bound = ceilDiv(load.InputTuples, int64(p))
	if load.InputTuples > 0 {
		load.Replication = float64(dist.Total()) / float64(load.InputTuples)
	}
	load.Rounds = append(load.Rounds, dist)
	return insts
}

// distributeOne replays the assignment walk keeping only server's share,
// rebuilding the exact fragment that server received in the original
// distribution — the restart path's re-send. The parent-side scans it
// charges run under the caller's RecoveryScope; the child-side receive
// charges land on the fresh child, exactly as the original receive did.
func distributeOne(g *hypergraph.Graph, in relation.Instance, child *extmem.Disk,
	plan *partitionPlan, server, p int) relation.Instance {
	inst := relation.Instance{}
	var b *relation.Builder
	prev := -1
	finish := func() {
		if prev >= 0 {
			inst[prev] = b.Finish()
		}
	}
	forEachAssignment(g, in, plan, p,
		func(id int) {
			finish()
			prev = id
			b = relation.NewBuilder(child, in[id].Schema())
		},
		func(id, s int, t tuple.Tuple, _ assignKind) {
			if s == server {
				b.Add(t)
			}
		})
	finish()
	return inst
}

// restartable reports whether a server failure is worth replaying on a fresh
// child: permanent injected model faults (injection is disarmed on the
// replacement) and device corruption (the corrupt frames die with the dead
// child's fragment — the replay writes fresh ones). Cancellation, budget
// exhaustion, ENOSPC, and a declared-dead device are shared-resource
// failures: a fresh child meets the same wall, so they surface immediately.
func restartable(err error) bool {
	var fe *extmem.FaultError
	if errors.As(err, &fe) {
		return fe.Kind == extmem.FaultPermanent
	}
	return errors.Is(err, extmem.ErrCorruption)
}

// hashValue owns value v to a server: FNV-1a over the value's 8 bytes. The
// hash is fixed (not seeded) so a value's owner is stable across runs,
// backends, and shard tests.
func hashValue(v int64, p int) int {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h := fnv.New64a()
	h.Write(b[:])
	return int(h.Sum64() % uint64(p))
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
