package acyclicjoin

import (
	"context"
	"fmt"

	"acyclicjoin/internal/cli"
	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
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
	// NoLineSpecialization disables routing line joins through the
	// Section 6 dispatcher (Algorithms 1/4/5 and the L6/L8 compositions);
	// Algorithm 2 is used unconditionally instead.
	NoLineSpecialization bool
	// Deprecated: ignored; exhaustive branches are always explored sequentially.
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
	// operators (sorts, semijoins, projections, materialized pairwise
	// joins) repeated on identical input windows with identical parameters
	// and machine shape are answered by cloning a recorded output and
	// replaying the recorded charges. On by default.
	// Every simulated figure — Stats, PlanningStats, counts — is
	// bit-identical with the memo on or off; only host wall-clock time
	// changes. Set MemoOff to force every operator to run for real.
	Memo MemoMode
	// Backend selects the storage engine behind the simulated disk: "sim"
	// (or empty — the default) counts block transfers in memory; "file" runs
	// every charged transfer against a real os.File, one syscall each,
	// byte-verifying charged reads against the in-memory image. The
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
	// Deprecated: ignored; queries always run on one simulated machine.
	Shards int
	// Faults attaches a deterministic, seeded fault-injection plan. On the
	// model layer (the zero FaultPlan.Layer) it fails charged block I/Os:
	// PermanentAt aborts with an error wrapping ErrFault and CancelAt with
	// one wrapping ErrCancelled, each with a partial Result; a model-layer
	// plan setting Rate is rejected. On the device layer faults fire under
	// the file backend's syscalls — transient EIO, torn writes, ENOSPC, a
	// dead device — and the engine recovers below the Backend seam (bounded
	// retry; torn frames repaired from the authoritative in-memory image), so
	// rows, Count, Stats and the plan of an absorbed run are bit-identical to
	// the fault-free run and all recovery work is billed to Result.Faults;
	// failures it cannot absorb abort with ErrDevice, ErrNoSpace or
	// ErrCorruption and a partial Result. A device plan on the sim backend is
	// a no-op: there are no syscalls to fault. A plan setting a field of the
	// other layer is rejected. nil falls back to the ACYCLICJOIN_DEVFAULTRATE
	// environment variable (a device plan at that rate, seed 1); with
	// neither, the charge path costs one nil check.
	Faults *FaultPlan

	// skipReduce skips the Yannakakis full reduction preprocessing, an
	// ablation the package's tests reach; the result is still correct, but
	// the optimality guarantees assume fully reduced inputs.
	skipReduce bool
}

// MemoMode switches the charge-replay operator memo; the zero value is on.
type MemoMode int

const (
	// MemoOn (the default) reuses recorded operator runs via charge replay.
	MemoOn MemoMode = iota
	// MemoOff runs every operator for real.
	MemoOff
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
	// StrategySmallest — report PlanningStats == Stats: the dispatcher's
	// nested Algorithm 2 searches, dry runs included, count as its execution.
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
	// and for line queries routed through the Section 6 dispatcher, which
	// commits to one plan and does not surface its nested searches. Like the
	// rest of the Result it is deterministic.
	Prune PruneStats
	// ClampedChoices counts defensive chooser clamps in the exhaustive
	// planner — a recorded decision meeting a subquery with fewer peelable
	// leaves than when it was made. Structurally unreachable; surfaced so
	// the test suite can assert it stays zero.
	ClampedChoices int64
	// Memo reports operator-memo effectiveness. The counters are host-side
	// diagnostics: they never feed into the simulated Stats. All zero when
	// the memo is off.
	Memo MemoStats
	// Faults is the recovery ledger of the run's fault plan: faults seen,
	// retries, torn-frame repairs, the I/O re-issued by retries, and the
	// simulated backoff cost. All zero when no plan was
	// attached or the plan never fired.
	Faults FaultStats
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
	// Device is the file engine's syscall-level telemetry (preads, pwrites,
	// backfills; every charged transfer is one syscall); all zero on the sim
	// backend.
	Device DeviceStats
}

// MemoStats counts memo hits, misses, evictions, and bytes served by replay.
type MemoStats = opcache.Stats

// TransferStats is the backend-seam transfer ledger; see extmem.XferStats.
type TransferStats = extmem.XferStats

// DeviceStats is the file backend's device telemetry; see extmem.DeviceStats.
type DeviceStats = extmem.DeviceStats

// PruneStats is the branch-and-bound telemetry of the exhaustive planner.
type PruneStats = core.PruneStats

// GreedyDecision is one scored decision point of a StrategyGreedy run; see
// the core package for field semantics.
type GreedyDecision = core.GreedyDecision

// GreedyScore is one candidate's scoring record within a GreedyDecision.
type GreedyScore = core.GreedyScore

// Run evaluates the join, calling emit (if non-nil) once per result. The
// Row map passed to emit is freshly allocated per call, so emit may keep or
// modify it; the Values in it may be shared between rows, which is safe
// because a Value (an int64 or a string) is immutable. For counting-only
// runs pass nil and read Result.Count: the query is then counted, not
// enumerated (Algorithm 2 and the line dispatcher's algorithms multiply
// group sizes wherever no binding is read), with the same Result otherwise:
// Stats, plan and charges. Equivalent to RunContext with a background
// context.
func Run(q *Query, inst *Instance, opts Options, emit func(Row)) (*Result, error) {
	return RunContext(context.Background(), q, inst, opts, emit)
}

// RunContext is Run with cancellation: when ctx is cancelled the run is
// aborted at the next charged block I/O, every unwind path restores the
// simulated disk, and the returned error wraps ErrCancelled (carrying
// context.Cause). On an abort — cancellation, a permanent injected fault
// (ErrFault), a device failure (ErrDevice, ErrNoSpace, ErrCorruption), or a
// leaked charge budget (ErrBudget) — the returned *Result
// is non-nil alongside the error, carrying partial telemetry: rows emitted
// so far (a count-only run counts at the end, so it reports zero), I/Os
// charged so far, and Result.Faults. Check the error before
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
	if opts.Faults == nil {
		rate, rerr := cli.DevFaultRate()
		if rerr != nil {
			return nil, fmt.Errorf("acyclicjoin: %w", rerr)
		}
		if rate > 0 {
			opts.Faults = &FaultPlan{Seed: 1, Layer: LayerDevice, Rate: rate}
		}
	} else if err := opts.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("acyclicjoin: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
	}
	return runOnce(ctx, q, inst, opts, cfg, emit)
}

// runOnce executes the query on one backend disk; RunContext owns
// validation above it.
func runOnce(ctx context.Context, q *Query, inst *Instance, opts Options, cfg extmem.Config, emit func(Row)) (res *Result, err error) {
	// The memory allowance follows the query's depth (see
	// Explanation.MemoryAllowance).
	cfg.MemFactor = core.MemFactor(q.graph)
	disk, eng, err := newBackendDisk(cfg, opts)
	if err != nil {
		return nil, err
	}
	// The query owns the disk and is over when runOnce returns: no file
	// outlives it (rows are decoded into Values), so the disk's slabs go
	// back to the pool for the next query. Deferred first, so it runs last.
	defer disk.Recycle()
	// The one plan arms one layer, and that layer's ledger reports it.
	faults := disk.FaultStats
	if eng != nil {
		defer eng.Close()
		eng.SetFaultPlan(opts.Faults)
		if opts.Faults != nil && opts.Faults.Layer == LayerDevice {
			faults = eng.FaultStats
		}
	}
	disk.SetFaultPlan(opts.Faults)
	stop := disk.WatchContext(ctx)
	defer stop()
	var count int64
	partial := func() *Result { return partialResult(disk, count, faults()) }
	// Last-resort conversion: loading and full reduction run outside
	// internal/core's catchers, so an abort there still travels as a panic
	// when it reaches this frame.
	defer func() {
		if r := recover(); r != nil {
			res, err = partial(), classifyAbort(r)
		}
	}()
	if opts.Memo != MemoOff {
		// The memo belongs to the disk: attached before the load, it records
		// the reduction's operator runs too, and core uses it as it finds it.
		opcache.Enable(disk)
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
	if !opts.skipReduce {
		red, rerr := reducer.FullReduce(q.graph, in)
		if rerr != nil {
			return abortResult(partial, rerr)
		}
		work = red
	}

	// Emit adapter: decode assignments into Rows. Attribute i of the query
	// has ID i (QueryBuilder.Relation assigns IDs in attrNames order). For
	// each attribute it keeps the last code decoded and the boxed Value it
	// produced: joins repeat the bound prefix from row to row, and those
	// rows share the immutable Value instead of boxing it again. It also
	// counts the rows delivered, for the partial Result of an abort; a
	// count-only run passes no emit, and core counts it (Result.Emitted).
	names := q.attrNames
	lastCode := tuple.NewAssignment(len(names))
	lastVal := make([]Value, len(names))
	coreEmit := func(a tuple.Assignment) {
		count++
		row := make(Row, len(names))
		for id, name := range names {
			x := a.Get(id)
			if x == tuple.Unset {
				continue
			}
			if x != lastCode[id] {
				lastCode[id], lastVal[id] = x, inst.dict.decode(x)
			}
			row[name] = lastVal[id]
		}
		emit(row)
	}

	res = &Result{}
	copts := core.Options{
		Strategy:      opts.Strategy,
		AssumeReduced: !opts.skipReduce,
		NoPrune:       opts.NoPrune,
	}
	var ce core.Emit
	if emit != nil {
		ce = coreEmit
	}
	var r *core.Result
	if !opts.NoLineSpecialization && q.IsLine() && q.graph.NumEdges() >= 3 {
		r, err = core.RunLine(q.graph, work, ce, copts)
	} else {
		r, err = core.Run(q.graph, work, ce, copts)
	}
	if err != nil {
		return abortResult(partial, err)
	}
	res.Plan = "acyclic-join (Algorithm 2), strategy " + opts.Strategy.String()
	if r.Line != nil {
		res.Plan = r.Line.Kind.String() + ": " + r.Line.Reason
	}
	res.Branches = r.Branches
	res.Prune = r.Prune
	res.ClampedChoices = r.ClampedChoices
	res.Greedy = r.Greedy
	// Execution stats: reduction + the emitting run. Planning adds the dry
	// runs; the line dispatcher makes none, so there the two are equal.
	exec := r.ExecStats
	total := r.TotalStats
	full := disk.Stats()
	// full = reduction + total; execution = full - (total - exec).
	execFull := full.Sub(total.Sub(exec))
	res.Stats = fromExtmem(execFull)
	res.PlanningStats = fromExtmem(full)
	count = r.Emitted
	res.Count = count
	res.Faults = faults()
	res.Backend = disk.BackendName()
	res.Transfers = disk.Transfers()
	res.Device = disk.DeviceStats()
	if m := opcache.Of(disk); m != nil {
		res.Memo = m.Stats()
	}
	return res, nil
}

// newBackendDisk builds the simulated disk on the configured storage engine,
// returning the file engine (nil on the sim backend) for the caller to arm
// and close.
func newBackendDisk(cfg extmem.Config, opts Options) (*extmem.Disk, *diskfile.Engine, error) {
	switch opts.Backend {
	case "sim":
		return extmem.NewDisk(cfg), nil, nil
	case "file":
		eng, err := diskfile.Open(opts.DataDir, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("acyclicjoin: open file backend: %w", err)
		}
		return extmem.NewDiskWithBackend(cfg, eng), eng, nil
	default:
		return nil, nil, fmt.Errorf("acyclicjoin: unknown backend %q (want \"sim\" or \"file\")", opts.Backend)
	}
}

// Count evaluates the join and returns only the number of results and stats.
// It is Run with a nil emit: the results are counted, not enumerated.
func Count(q *Query, inst *Instance, opts Options) (*Result, error) {
	return Run(q, inst, opts, nil)
}
