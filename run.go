package acyclicjoin

import (
	"context"
	"errors"
	"fmt"

	"acyclicjoin/internal/cli"
	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/faultbackend"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/shard"
	"acyclicjoin/internal/tuple"
)

// Strategy selects how Algorithm 2 resolves its nondeterministic choice of
// which leaf relation to peel.
type Strategy = core.Strategy

// Re-exported strategies; see the core package for semantics.
const (
	// StrategyExhaustive dry-runs every peeling policy and re-runs the
	// cheapest with emission — the paper's round-robin guarantee. Default.
	StrategyExhaustive = core.StrategyExhaustive
	// StrategyFirst always peels the first leaf (fast, possibly suboptimal).
	StrategyFirst = core.StrategyFirst
	// StrategySmallest greedily peels the leaf with the smallest relation.
	StrategySmallest = core.StrategySmallest
	// StrategyGreedy scores every peelable leaf at each decision point —
	// block counts, hypergraph fan-out, and a bounded semijoin-shrinkage
	// probe charged to PlanningStats — and commits to the best branch
	// without dry-running alternatives. Planning cost is the probe I/Os
	// (PlanningStats − Stats); Result.Greedy records the per-choice score
	// rationale, rendered by Result.ExplainString. StrategyExhaustive is
	// the offline oracle that grades the greedy plan (experiment E28).
	StrategyGreedy = core.StrategyGreedy
)

// ParseStrategy maps a strategy name ("exhaustive", "first", "smallest",
// "greedy") to its Strategy value; used by the CLIs and the harness to
// thread the -strategy flag and the ACYCLICJOIN_STRATEGY environment
// variable.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "exhaustive":
		return StrategyExhaustive, nil
	case "first":
		return StrategyFirst, nil
	case "smallest":
		return StrategySmallest, nil
	case "greedy":
		return StrategyGreedy, nil
	}
	return StrategyExhaustive, fmt.Errorf("acyclicjoin: unknown strategy %q (want exhaustive, first, smallest, or greedy)", name)
}

// Options configures a Run.
type Options struct {
	// Memory is M, the memory size in tuples. Default 1024.
	Memory int
	// Block is B, the block size in tuples. Default 64.
	Block int
	// Strategy resolves the nondeterministic peeling. Default exhaustive.
	// The CLIs (joinrun/joinbench) and the harness additionally honor the
	// ACYCLICJOIN_STRATEGY environment variable when no -strategy flag is
	// given; see ParseStrategy.
	Strategy Strategy
	// SkipReduce skips the Yannakakis full reduction preprocessing. The
	// result is still correct, but the optimality guarantees assume fully
	// reduced inputs.
	SkipReduce bool
	// NoLineSpecialization disables routing line joins through the
	// Section 6 dispatcher (Algorithms 1/4/5 and the L6/L8 compositions);
	// Algorithm 2 is used unconditionally instead.
	NoLineSpecialization bool
	// Parallelism bounds how many dry-run branches StrategyExhaustive may
	// explore concurrently, each on a thread-confined child view of the
	// simulated disk. 0 (the default) uses the sequential reference path;
	// any N >= 1 uses a worker pool of N goroutines. The fields the paper's
	// guarantee is about — Count, Stats, the winning plan, and the emitted
	// rows and their order — are bit-identical at every setting. With
	// NoPrune set, the entire Result (PlanningStats and Prune included) is
	// bit-identical too; under pruning those two depend on worker timing.
	// Other strategies explore a single branch and ignore this knob.
	Parallelism int
	// NoPrune disables branch-and-bound pruning of the exhaustive strategy's
	// dry-run branches. With pruning on (the default), a dry run is aborted
	// as soon as its charged I/O reaches the best completed branch's cost —
	// it can no longer win. Count, Stats (the winning branch's execution
	// cost), and the winning plan are provably unchanged by pruning;
	// PlanningStats then counts only the charges each pruned branch made
	// before its abort. Set NoPrune to restore the paper's full "Σ branches
	// + best" round-robin accounting in PlanningStats. (Composite line plans
	// routed through the Section 6 dispatcher run nested exhaustive searches
	// whose planning charges fold into Stats; NoPrune restores the unpruned
	// accounting there too.)
	NoPrune bool
	// Memo controls the charge-replay operator memo: deterministic
	// operators (sorts, semijoins, projections, heavy/light splits,
	// materialized pairwise joins) repeated on identical input windows with
	// identical parameters and machine shape are answered by cloning a
	// recorded output and replaying the recorded charges. On by default.
	// Every simulated figure — Stats, PlanningStats, counts — is
	// bit-identical with the memo on or off; only host wall-clock time
	// changes. Set MemoOff to force every operator to run for real.
	Memo MemoMode
	// MemoMaxEntries and MemoMaxTuples bound the memo when nonzero: at
	// most MemoMaxEntries recorded operators, and at most MemoMaxTuples
	// tuples retained across recorded output snapshots, evicting
	// least-recently-used entries. Eviction only costs recomputation on a
	// later repeat; it never changes any simulated counter.
	MemoMaxEntries int
	MemoMaxTuples  int64
	// Backend selects the storage engine behind the simulated disk: "sim"
	// (or empty — the default) counts block transfers in memory; "file" runs
	// every charged transfer against a real os.File through an aligned block
	// cache, byte-verifying charged reads against the in-memory image. The
	// model sits entirely above the seam, so Count, Stats, the winning plan,
	// and the emitted rows are bit-identical across backends; Result.Device
	// reports the file engine's syscall-level telemetry. An empty value
	// falls back to the ACYCLICJOIN_BACKEND environment variable, letting a
	// whole test suite be re-run on the file engine without code changes.
	Backend string
	// DataDir is where the file backend keeps its backing file. Empty means
	// the ACYCLICJOIN_DATADIR environment variable, and failing that the
	// system temp directory with the file unlinked at creation (storage
	// lives only as an open descriptor and is reclaimed even on a crash).
	// Ignored by the sim backend.
	DataDir string
	// SyncDevice forces the file backend's synchronous device path: charged
	// writes pwrite inline and demand misses pread before the charged
	// operation returns, with no background writeback or prefetch workers.
	// Off (the default) uses the asynchronous device pipeline; the
	// ACYCLICJOIN_SYNC_DEVICE environment variable also forces the
	// synchronous path when this field is false. Every charged counter,
	// verification, and emitted row is bit-identical either way — the knob
	// trades only wall-clock overlap and exists as an escape hatch and for
	// A/B benchmarking. Ignored by the sim backend.
	SyncDevice bool
	// Shards is p, the number of simulated MPC servers the join executes
	// across (internal/shard): after the full reduction the input is
	// hash-partitioned on a join attribute — heavy hitters split across
	// servers, small relations broadcast — and each server evaluates the
	// query on its own child disk, concurrently, with deterministic
	// server-order merging. Result.Shards then reports the per-round load
	// accounting. 0 (the default) falls back to the ACYCLICJOIN_SHARDS
	// environment variable, and failing that to 1; at 1 the shard machinery
	// is bypassed entirely and the run is the classic single-server
	// execution — when sharding was explicitly requested (field or env set),
	// Result.Shards still reports the bypass via LoadStats.Bypass. The
	// emitted row MULTISET is bit-identical at every shard
	// count (on both backends, all memo modes); the emission order is
	// server-major, so it differs from the unsharded order. Sharded runs
	// always use Algorithm 2 — the Section 6 line dispatcher is a
	// single-server plan — and report Greedy == nil.
	Shards int
	// Faults attaches a deterministic, seeded fault-injection plan to the
	// simulated disk: transient faults are retried at operator boundaries
	// (retry I/O charged separately on Result.Faults, so the main Stats stay
	// bit-identical to a fault-free run), permanent faults abort the run
	// with an error wrapping ErrFault. nil — the default — leaves the fault
	// layer disabled; the charge path then costs one nil check.
	Faults *FaultPlan
	// DeviceFaults attaches a deterministic, seeded schedule of syscall-level
	// faults to the file backend's storage engine (see
	// internal/extmem/faultbackend): transient EIO on preads/pwrites — on the
	// charged path and on the async flusher/prefetch workers alike — torn
	// writes that corrupt a device frame, ENOSPC on arena growth, and a
	// dead-device trigger. The engine recovers below the Backend seam
	// (bounded retry with backoff; torn frames repaired from the
	// authoritative in-memory image), so rows, Count, Stats, the plan, and
	// the shard load table stay bit-identical to the fault-free run; all
	// injection and recovery work is billed to Result.Faults.Device instead.
	// Failures the engine cannot absorb abort with a typed error (ErrDevice,
	// ErrNoSpace, ErrCorruption) and a partial Result — or, with
	// DeviceFaultPlan.Degrade set, a dead device transparently re-runs the
	// query on the counting simulator (Result.Degraded reports it). nil falls
	// back to the ACYCLICJOIN_DEVFAULTRATE / ACYCLICJOIN_DEVFAULTSEED
	// environment variables; a plan (or env rate) on the sim backend is a
	// documented no-op — there are no syscalls to fault.
	DeviceFaults *DeviceFaultPlan
}

// MemoMode switches the charge-replay operator memo; the zero value is on.
type MemoMode = core.MemoMode

const (
	// MemoOn (the default) reuses recorded operator runs via charge replay.
	MemoOn = core.MemoOn
	// MemoOff runs every operator for real.
	MemoOff = core.MemoOff
)

func (o Options) withDefaults() Options {
	if o.Memory == 0 {
		o.Memory = 1024
	}
	if o.Block == 0 {
		o.Block = 64
	}
	o.Backend = cli.BackendName(o.Backend)
	if o.Backend == "" {
		o.Backend = "sim"
	}
	o.DataDir = cli.DataDir(o.DataDir)
	return o
}

// Stats reports the I/O behaviour of a run on the simulated machine.
type Stats struct {
	// Reads and Writes count block transfers; IOs is their sum.
	Reads, Writes, IOs int64
	// MemHiWater is the peak number of tuples held in memory.
	MemHiWater int
}

func fromExtmem(s extmem.Stats) Stats {
	return Stats{Reads: s.Reads, Writes: s.Writes, IOs: s.IOs(), MemHiWater: s.MemHiWater}
}

// Result reports the outcome of a Run.
type Result struct {
	// Count is the number of join results emitted.
	Count int64
	// Stats is the I/O cost of the executed (winning) branch, including the
	// full-reduction preprocessing.
	Stats Stats
	// PlanningStats additionally includes the dry-run branches explored
	// under StrategyExhaustive (the paper's round-robin simulation cost).
	// With branch-and-bound pruning on (the default), pruned branches
	// contribute only the charges made before their abort; set
	// Options.NoPrune for the full Σ-branches accounting. Paths that explore
	// no dry-run branches — the line-join dispatcher, StrategyFirst,
	// StrategySmallest — report PlanningStats == Stats.
	PlanningStats Stats
	// Branches is how many peeling policies were explored.
	Branches int
	// Plan describes the algorithm used ("acyclic-join (Algorithm 2)",
	// "line-5 unbalanced (Algorithm 4)", ...).
	Plan string
	// Prune reports branch-and-bound telemetry for the exhaustive planner:
	// dry-run branches started, pruned at the incumbent bound, completed,
	// and the I/Os the pruned branches charged before aborting. Zero when
	// Options.NoPrune is set (Pruned only), for single-branch strategies,
	// and for line queries routed through the Section 6 dispatcher (whose
	// nested searches are not surfaced here). Under Parallelism >= 1 the
	// split varies run to run with worker timing.
	Prune PruneStats
	// ClampedChoices counts defensive chooser clamps in the exhaustive
	// planner — a recorded decision meeting a subquery with fewer peelable
	// leaves than when it was made. Structurally unreachable; surfaced so
	// the test suite can assert it stays zero.
	ClampedChoices int64
	// Memo reports operator-memo effectiveness. The counters are host-side
	// diagnostics: they never feed into the simulated Stats, and under
	// Parallelism > 1 the hit/miss split can vary run to run (two branches
	// may miss on the same operator before either stores it). All zero
	// when the memo is off.
	Memo MemoStats
	// Faults reports fault-injection telemetry when Options.Faults was set:
	// transient/permanent faults seen, inline and boundary retries, the I/O
	// re-charged by retries, and the simulated backoff cost. All zero when
	// no plan was attached or the plan never fired.
	Faults FaultStats
	// Shards is the MPC load accounting of a shard-parallel run (resolved
	// Options.Shards > 1): server count, partition attribute, replication
	// overhead, heavy-hitter telemetry, and per-round maximum/median load
	// against the instance-optimal bound ceil(N/p). nil for unsharded runs.
	Shards *LoadStats
	// Greedy records, for StrategyGreedy, every multi-leaf decision the
	// planner scored: candidates with block counts, fan-outs, probed
	// survival estimates and scores, and the chosen branch, in first-
	// encounter order. ExplainString renders it; nil for other strategies
	// and for line queries routed through the Section 6 dispatcher.
	Greedy []GreedyDecision
	// Backend names the storage engine the run executed on ("sim" or
	// "file").
	Backend string
	// Transfers is the backend-seam ledger for the whole run (reduction and
	// planning included): every charge in PlanningStats is either a
	// performed transfer (a concrete block window crossed the seam) or a
	// replayed one (a memo hit billing recorded charges). On both backends
	// PlanningStats.Reads == Transfers.Reads + Transfers.ReplayedReads, and
	// likewise for writes — on the file backend the performed side was
	// physically executed and verified against the image.
	Transfers TransferStats
	// Device is the file engine's syscall-level telemetry (cache hits,
	// coalesced writes, prefetches); all zero on the sim backend.
	Device DeviceStats
	// Degraded reports that the file backend's device died mid-run and the
	// results came from the degraded-mode fallback: a clean re-run on the
	// counting simulator (Options.DeviceFaults.Degrade). Backend then names
	// the engine that produced the results ("sim"), and
	// Faults.Device carries the dead device's fault telemetry with
	// Degraded set.
	Degraded bool
}

// MemoStats counts memo hits, misses, evictions, and bytes served by replay.
type MemoStats = opcache.Stats

// TransferStats is the backend-seam transfer ledger; see extmem.XferStats.
type TransferStats = extmem.XferStats

// DeviceStats is the file backend's device telemetry; see extmem.DeviceStats.
type DeviceStats = extmem.DeviceStats

// PruneStats is the branch-and-bound telemetry of the exhaustive planner.
type PruneStats = core.PruneStats

// LoadStats is the MPC load accounting of a shard-parallel run; see the
// shard package for field semantics.
type LoadStats = shard.LoadStats

// RoundLoad is one MPC round's per-server load within LoadStats.
type RoundLoad = shard.RoundLoad

// MaxShards bounds Options.Shards.
const MaxShards = shard.MaxShards

// GreedyDecision is one scored decision point of a StrategyGreedy run; see
// the core package for field semantics.
type GreedyDecision = core.GreedyDecision

// GreedyScore is one candidate's scoring record within a GreedyDecision.
type GreedyScore = core.GreedyScore

// Run evaluates the join, calling emit (if non-nil) once per result. The
// Row passed to emit is freshly allocated per call; for counting-only runs
// pass nil and read Result.Count. Equivalent to RunContext with a
// background context.
func Run(q *Query, inst *Instance, opts Options, emit func(Row)) (*Result, error) {
	return RunContext(context.Background(), q, inst, opts, emit)
}

// RunContext is Run with cancellation: when ctx is cancelled the run is
// aborted at the next charged block I/O, every unwind path restores the
// simulated disk, and the returned error wraps ErrCancelled (carrying
// context.Cause). On an abort — cancellation, a permanent injected fault
// (ErrFault), or a leaked charge budget (ErrBudget) — the returned *Result
// is non-nil alongside the error, carrying partial telemetry: rows emitted
// so far, I/Os charged so far, and Result.Faults. Check the error before
// trusting any other Result field. RunContext never panics: internal
// invariant violations surface as errors wrapping ErrInternal.
func RunContext(ctx context.Context, q *Query, inst *Instance, opts Options, emit func(Row)) (res *Result, err error) {
	if inst.q != q {
		return nil, fmt.Errorf("acyclicjoin: instance belongs to a different query")
	}
	opts = opts.withDefaults()
	cfg := extmem.Config{M: opts.Memory, B: opts.Block}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards, err := cli.Shards(opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("acyclicjoin: %w", err)
	}
	if shards < 1 || shards > shard.MaxShards {
		return nil, fmt.Errorf("acyclicjoin: shard count %d out of range [1, %d]", shards, shard.MaxShards)
	}
	if opts.DeviceFaults == nil {
		rate, rerr := cli.DevFaultRate(0)
		if rerr != nil {
			return nil, fmt.Errorf("acyclicjoin: %w", rerr)
		}
		seed, serr := cli.DevFaultSeed(0)
		if serr != nil {
			return nil, fmt.Errorf("acyclicjoin: %w", serr)
		}
		if rate > 0 {
			opts.DeviceFaults = &DeviceFaultPlan{Seed: seed, Rate: rate}
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
	}
	if p := opts.DeviceFaults; p != nil && p.Degrade && p.Enabled() && opts.Backend == "file" {
		return runDegradable(ctx, q, inst, opts, shards, cfg, emit)
	}
	return runOnce(ctx, q, inst, opts, shards, cfg, emit)
}

// runDegradable runs the query on the (fault-injected) file backend and, when
// the device is declared dead — errors.Is(err, ErrDevice), and only that
// class: cancellation, ENOSPC, corruption, and injected model faults keep
// their typed aborts — transparently re-runs it on the counting simulator.
// First-attempt emissions are buffered so the caller sees the rows of exactly
// one successful run, never a partial prefix followed by a fallback replay.
func runDegradable(ctx context.Context, q *Query, inst *Instance, opts Options, shards int, cfg extmem.Config, emit func(Row)) (*Result, error) {
	var buf []Row
	bufEmit := emit
	if emit != nil {
		bufEmit = func(r Row) { buf = append(buf, r) }
	}
	res, err := runOnce(ctx, q, inst, opts, shards, cfg, bufEmit)
	if err == nil {
		for _, r := range buf {
			emit(r)
		}
		return res, nil
	}
	if !errors.Is(err, ErrDevice) {
		return res, err
	}
	fopts := opts
	fopts.Backend = "sim"
	fopts.DataDir = ""
	fopts.SyncDevice = false
	fopts.DeviceFaults = nil
	res2, err2 := runOnce(ctx, q, inst, fopts, shards, cfg, emit)
	if err2 != nil {
		return res2, err2
	}
	res2.Degraded = true
	var dev DeviceFaultStats
	if res != nil {
		dev = res.Faults.Device
	}
	dev.Degraded = 1
	res2.Faults.Device = dev
	return res2, nil
}

// runOnce executes one attempt of the query on one backend disk; RunContext
// owns validation and the degraded-mode retry policy above it.
func runOnce(ctx context.Context, q *Query, inst *Instance, opts Options, shards int, cfg extmem.Config, emit func(Row)) (res *Result, err error) {
	disk, closeBackend, err := newBackendDisk(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer closeBackend()
	disk.SetFaultPlan(opts.Faults)
	stop := disk.WatchContext(ctx)
	defer stop()
	var count int64
	// Last-resort conversion: loading and full reduction run outside
	// internal/core's catchers, so an abort there still travels as a panic
	// when it reaches this frame.
	defer func() {
		if r := recover(); r != nil {
			res, err = partialResult(disk, count), classifyAbort(r)
		}
	}()
	memoLimits := opcache.Limits{MaxEntries: opts.MemoMaxEntries, MaxTuples: opts.MemoMaxTuples}
	if opts.Memo != MemoOff {
		// Attach before the reduction so its operator runs are recorded too.
		opcache.EnableLimited(disk, memoLimits)
	}

	// Load the instance onto the simulated disk without charging: input
	// data is assumed to already reside on disk when the algorithm starts.
	restore := disk.Suspend()
	in := relation.Instance{}
	for _, i := range q.relIndex {
		schema := make(tuple.Schema, len(q.relAttrs[i]))
		for j, a := range q.relAttrs[i] {
			schema[j] = q.attrIDs[a]
		}
		in[i] = relation.FromTuples(disk, schema, inst.rows[i])
	}
	restore()
	disk.ResetStats()

	work := in
	if !opts.SkipReduce {
		red, rerr := reducer.FullReduce(q.graph, in)
		if rerr != nil {
			return abortResult(disk, count, rerr)
		}
		work = red
	}

	// An explicit shards=1 request takes the unsharded executor below (the
	// bypass) but still reports Result.Shards; capture N now, while the
	// reduced relations are untouched (Len is charge-free).
	shardBypass := shards == 1 && cli.ShardsRequested(opts.Shards)
	var shardInputN int64
	if shardBypass {
		for _, id := range relation.SortedEdgeIDs(q.graph) {
			shardInputN += int64(work[id].Len())
		}
	}

	// Emit adapter: decode assignments into Rows.
	attrOrder := make([]string, len(q.attrNames))
	copy(attrOrder, q.attrNames)
	coreEmit := func(a tuple.Assignment) {
		count++
		if emit == nil {
			return
		}
		row := make(Row, len(attrOrder))
		for name, id := range q.attrIDs {
			if a.Has(id) {
				row[name] = inst.dict.decode(a.Get(id))
			}
		}
		emit(row)
	}

	res = &Result{}
	copts := core.Options{
		Strategy:      opts.Strategy,
		AssumeReduced: !opts.SkipReduce,
		Parallelism:   opts.Parallelism,
		NoPrune:       opts.NoPrune,
		Memo:          opts.Memo,
		MemoLimits:    memoLimits,
	}
	if shards > 1 {
		r, serr := shard.Run(q.graph, work, coreEmit, shard.Options{Shards: shards, Core: copts})
		if serr != nil {
			return abortResult(disk, count, serr)
		}
		res.Plan = fmt.Sprintf("acyclic-join (Algorithm 2), strategy %s, sharded MPC x%d", opts.Strategy, shards)
		res.Branches = r.Branches
		res.Prune = r.Prune
		res.ClampedChoices = r.ClampedChoices
		load := r.Load
		res.Shards = &load
		// Execution stats: reduction + distribution + every server's winning
		// branch. Planning adds the servers' dry runs.
		execFull := disk.Stats().Sub(r.TotalStats.Sub(r.ExecStats))
		res.Stats = fromExtmem(execFull)
		res.PlanningStats = fromExtmem(disk.Stats())
		if emit == nil {
			count = r.Emitted
		}
	} else if !opts.NoLineSpecialization && q.IsLine() && q.graph.NumEdges() >= 3 {
		plan, lerr := core.RunLine(q.graph, work, coreEmit, copts)
		if lerr != nil {
			return abortResult(disk, count, lerr)
		}
		res.Plan = plan.Kind.String() + ": " + plan.Reason
		// The dispatcher commits to one plan up front: no dry-run branches,
		// so planning cost equals execution cost (reduction included).
		res.Stats = fromExtmem(disk.Stats())
		res.PlanningStats = res.Stats
		res.Branches = 1
	} else {
		r, cerr := core.Run(q.graph, work, coreEmit, copts)
		if cerr != nil {
			return abortResult(disk, count, cerr)
		}
		res.Plan = "acyclic-join (Algorithm 2), strategy " + opts.Strategy.String()
		res.Branches = r.Branches
		res.Prune = r.Prune
		res.ClampedChoices = r.ClampedChoices
		res.Greedy = r.Greedy
		// Execution stats: reduction + winning branch. Planning adds the
		// dry runs.
		exec := r.ExecStats
		total := r.TotalStats
		full := disk.Stats()
		// full = reduction + total; execution = full - (total - exec).
		execFull := full.Sub(total.Sub(exec))
		res.Stats = fromExtmem(execFull)
		res.PlanningStats = fromExtmem(full)
		if emit == nil {
			count = r.Emitted
		}
	}
	if shardBypass {
		load := shard.BypassLoad(shardInputN, disk.Stats().IOs())
		res.Shards = &load
	}
	res.Count = count
	res.Faults = disk.FaultStats()
	res.Backend = disk.BackendName()
	res.Transfers = disk.Transfers()
	res.Device = disk.DeviceStats()
	if m := opcache.Of(disk); m != nil {
		res.Memo = m.Stats()
	}
	return res, nil
}

// newBackendDisk builds the simulated disk on the configured storage engine
// and returns a release function for the engine's resources.
func newBackendDisk(cfg extmem.Config, opts Options) (*extmem.Disk, func(), error) {
	switch opts.Backend {
	case "sim":
		return extmem.NewDisk(cfg), func() {}, nil
	case "file":
		b, err := faultbackend.OpenBackend(opts.DataDir, cfg, opts.SyncDevice, opts.DeviceFaults)
		if err != nil {
			return nil, nil, fmt.Errorf("acyclicjoin: open file backend: %w", err)
		}
		return extmem.NewDiskWithBackend(cfg, b), func() { b.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("acyclicjoin: unknown backend %q (want \"sim\" or \"file\")", opts.Backend)
	}
}

// Count evaluates the join and returns only the number of results and stats.
func Count(q *Query, inst *Instance, opts Options) (*Result, error) {
	return Run(q, inst, opts, nil)
}
