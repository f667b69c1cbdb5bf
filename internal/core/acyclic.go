// Package core implements the paper's primary contribution: Algorithm 2
// (AcyclicJoin), the worst-case I/O-optimal join algorithm for Berge-acyclic
// queries, together with the special-case algorithms of Sections 3 and 6
// (Algorithm 1 for 3-relation line joins, Algorithm 4 for unbalanced
// 5-relation line joins, Algorithm 5 for unbalanced 7-relation line joins)
// and the dispatcher that composes them for L6 and L8.
//
// Algorithm 2 recursively peels the query: buds are dropped (after a
// safety semijoin when the instance is not known to be fully reduced),
// islands are cross-producted chunk by chunk, and leaves are peeled with
// the heavy/light value split of Section 2.3 — heavy values restrict the
// neighbours to zero-copy views and remove the join attribute (possibly
// disconnecting the query), light values are loaded in ≤2M-tuple chunks of
// whole value groups while the join attribute stays in the query. Join
// results are delivered through an emit callback and never written to disk
// (the emit model).
//
// The paper resolves the choice of which leaf to peel nondeterministically
// and simulates all branches round-robin. Here a branch is a *policy*: a
// function from subquery structure to peeled leaf, mirroring GenS(Q), whose
// choices only depend on the hypergraph. StrategyExhaustive enumerates all
// policies, dry-runs each (emission suppressed), and re-runs the cheapest
// with emission: total cost = Σ branches + best = O(best) for constant
// query size, exactly the guarantee of the paper's round-robin simulation,
// while emitting each result exactly once.
package core

import (
	"fmt"
	"sort"
	"strings"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// Emit receives one join result as an assignment over the query's
// attributes. The assignment is reused between calls; copy it to retain it.
type Emit func(tuple.Assignment)

// Strategy selects how the nondeterministic leaf choice is resolved.
type Strategy int

const (
	// StrategyExhaustive enumerates all structure-driven policies, dry-runs
	// each, and re-runs the cheapest with emission: the paper's round-robin
	// guarantee with exactly-once emission. This is the zero value, so an
	// unconfigured Options runs the paper's algorithm.
	StrategyExhaustive Strategy = iota
	// StrategyFirst peels the first leaf in edge order. Deterministic and
	// cheap, but may follow an arbitrarily bad branch.
	StrategyFirst
	// StrategySmallest peels the leaf with the smallest relation, a greedy
	// heuristic.
	StrategySmallest
	// StrategyGreedy scores every peelable leaf at each decision point from
	// information in hand — block counts, shared-attribute fan-out, and a
	// bounded semijoin-shrinkage probe charged to the disk — and commits to
	// the best-scoring branch without dry-running alternatives. Planning cost
	// is the probe I/Os alone (TotalStats minus ExecStats); plan quality is
	// graded against StrategyExhaustive by harness experiment E28. See
	// greedy.go.
	StrategyGreedy
)

func (s Strategy) String() string {
	switch s {
	case StrategyFirst:
		return "first"
	case StrategySmallest:
		return "smallest"
	case StrategyExhaustive:
		return "exhaustive"
	case StrategyGreedy:
		return "greedy"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures Run.
type Options struct {
	Strategy Strategy
	// AssumeReduced records that the TOP-LEVEL instance is fully reduced,
	// allowing bud relations of the input query to be dropped without a
	// defensive semijoin. It never applies inside the recursion: heavy-value
	// restriction produces sub-instances that are no longer reduced, where
	// a bud's neighbours must be filtered for correctness.
	AssumeReduced bool
	// DisableHeavySplit is an ablation switch: leaf peeling skips the
	// Section 2.3 heavy/light split and processes every value light-style
	// in plain M-tuple chunks (value groups may straddle chunks; the
	// neighbours are re-semijoined per chunk). Correct, but on skewed data
	// it loses the factor the heavy-value restriction views save.
	DisableHeavySplit bool
	// Parallelism bounds how many dry-run branches StrategyExhaustive may
	// explore concurrently, each on its own child disk (extmem.Disk.NewChild).
	// Values <= 0 use the sequential odometer reference path; any value >= 1
	// uses the worker-pool path with that many workers. With NoPrune set both
	// paths produce bit-identical Results — see runExhaustiveParallel for why.
	// Under pruning (the default) the pinned fields — Emitted, ExecStats,
	// Policy — are still bit-identical at every setting, but TotalStats,
	// Prune, and (via truncated discovery) Branches depend on worker timing.
	// Ignored by the other strategies, which explore a single branch.
	Parallelism int
	// NoPrune disables branch-and-bound pruning of dry-run branches under
	// StrategyExhaustive. With pruning on (the default), a dry run is aborted
	// the moment its charged I/O reaches the best completed branch's cost:
	// charges are monotone, so such a branch can never win, and the abort
	// provably changes neither the emitted results, nor ExecStats, nor the
	// winning Policy (DESIGN.md "Branch pruning" has the tie-break proof).
	// What pruning does change is TotalStats, which then counts only the
	// charges made before each abort instead of the paper's full "Σ branches"
	// round-robin accounting. Set NoPrune to restore the paper's TotalStats
	// semantics — and fully deterministic TotalStats/Prune/Branches under
	// Parallelism >= 1.
	NoPrune bool
	// Memo controls the charge-replay operator memo (internal/opcache)
	// attached to the instance's disk. On (the default), identical operator
	// runs — the same relation sorted, semijoined, split, or pair-joined the
	// same way on every dry-run branch — are answered by replaying recorded
	// charge tapes instead of redoing the work. Every simulated counter stays
	// bit-identical to an unmemoized run; only host time changes. Child disks
	// share the parent's memo, so branches explored in parallel benefit too.
	Memo MemoMode
	// MemoLimits bounds the memo (entry count and retained snapshot tuples);
	// the zero value is unbounded. Eviction only costs recomputation on a
	// later miss — simulated counters stay bit-identical under any limits.
	MemoLimits opcache.Limits
}

// MemoMode switches the charge-replay operator memo. The zero value is on.
type MemoMode int

const (
	// MemoOn attaches an operator memo to the run's disk (keeping an
	// already-attached one, so nested Run calls share the outer memo).
	MemoOn MemoMode = iota
	// MemoOff detaches any memo: every operator runs for real.
	MemoOff
)

// applyMemo attaches or detaches the operator memo on d per opts.
func applyMemo(d *extmem.Disk, opts Options) {
	if d == nil {
		return
	}
	if opts.Memo == MemoOff {
		opcache.Disable(d)
	} else if opcache.Of(d) == nil {
		opcache.EnableLimited(d, opts.MemoLimits)
	}
}

// Result reports the outcome of a Run.
type Result struct {
	// Emitted counts join results delivered to emit.
	Emitted int64
	// ExecStats is the I/O cost of the emitting run (the winning branch
	// under StrategyExhaustive; the only run otherwise). Its MemHiWater is
	// the emitting run's own peak, not the disk's lifetime hi-water mark:
	// the planning phase's peak belongs to TotalStats, and scoping it there
	// is what keeps ExecStats bit-identical with pruning on or off.
	ExecStats extmem.Stats
	// TotalStats additionally includes every dry-run branch (the paper's
	// round-robin simulation cost; a constant factor above ExecStats).
	TotalStats extmem.Stats
	// Branches is the number of policies tried (1 unless exhaustive).
	Branches int
	// Policy records, per subquery structure key, which leaf index the
	// winning branch peeled. Diagnostic.
	Policy map[string]int
	// Prune reports branch-and-bound telemetry for the exhaustive strategy
	// (Started equals Branches; Pruned is zero under Options.NoPrune). On the
	// sequential path the split is deterministic; under Parallelism >= 1 the
	// Pruned/Completed split and ChargedBeforeAbort depend on worker timing
	// and vary run to run.
	Prune PruneStats
	// ClampedChoices counts chooser fallbacks: a recorded decision index met
	// a subquery offering fewer peelable leaves than when the decision was
	// made. Leaf options are a function of subquery structure and decisions
	// are keyed by that structure, so this is believed structurally
	// unreachable — the counter surfaces the defensive clamp instead of
	// letting it hide, and the test suite asserts it stays zero.
	ClampedChoices int64
	// Greedy records, for StrategyGreedy only, every multi-leaf decision the
	// planner scored: the candidates with their block counts, fan-outs,
	// probed survival estimates and scores, and which one was chosen.
	// Decisions are recorded once per subquery structure, in the order they
	// were first encountered. Nil for every other strategy.
	Greedy []GreedyDecision
}

// PruneStats is branch-and-bound telemetry for one exhaustive run.
type PruneStats struct {
	// Started counts dry-run branches begun; Pruned of them were aborted at
	// the incumbent bound and Completed ran to the end.
	Started, Pruned, Completed int
	// ChargedBeforeAbort totals the I/Os the pruned branches charged before
	// aborting; these charges are included in TotalStats. The I/Os pruning
	// *saved* are whatever the aborted suffixes would have charged — not
	// observable inside a pruned run; harness experiment E25 measures them
	// A/B against an unpruned run.
	ChargedBeforeAbort int64
}

// Run evaluates the Berge-acyclic join (g, in), invoking emit per result.
//
// Permanent faults and cancellation surface here as typed errors: the whole
// strategy dispatch runs under CatchAbort, so an abort that escapes every
// operator boundary unwinds the disk (phases, recorders, peak watches,
// budget watermark) and returns the *FaultError / ErrCancelled cause instead
// of panicking through the caller.
func Run(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options) (*Result, error) {
	if !g.IsBergeAcyclic() {
		return nil, fmt.Errorf("core: query %v is not Berge-acyclic", g)
	}
	if err := in.Validate(g, false); err != nil {
		return nil, err
	}
	disk := anyDisk(g, in)
	applyMemo(disk, opts)
	res := &Result{Policy: map[string]int{}}
	if disk == nil {
		return runStrategy(g, in, emit, opts, disk, res)
	}
	var out *Result
	pruned, err := disk.CatchAbort(func() error {
		var e error
		out, e = runStrategy(g, in, emit, opts, disk, res)
		return e
	})
	if err != nil {
		return nil, err
	}
	if pruned {
		// A budget panic can only reach here if a caller armed a watermark
		// and skipped its own catch; the per-branch catches below never let
		// one escape.
		return nil, fmt.Errorf("core: charge budget leaked into the run: %w", extmem.ErrBudgetExceeded)
	}
	return out, nil
}

// runStrategy is Run's strategy dispatch, separated so Run can wrap it in a
// single CatchAbort.
func runStrategy(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result) (*Result, error) {
	if opts.Strategy == StrategyGreedy {
		return runGreedy(g, in, emit, opts, disk, res)
	}
	if opts.Strategy != StrategyExhaustive {
		ex := &executor{
			emit:    emit,
			opts:    opts,
			nAttrs:  g.MaxAttr() + 1,
			chooser: staticChooser(opts.Strategy),
		}
		before := disk.Stats()
		stopPeak := disk.StartMemPeak()
		err := ex.run(g, in)
		peak := stopPeak()
		if err != nil {
			return nil, err
		}
		res.Emitted = ex.emitted
		res.ExecStats = disk.Stats().Sub(before)
		res.ExecStats.MemHiWater = peak
		res.TotalStats = res.ExecStats
		res.Branches = 1
		return res, nil
	}

	if branchFree(g, opts.DisableHeavySplit) {
		return runExhaustiveSingle(g, in, emit, opts, disk, res)
	}
	if opts.Parallelism >= 1 {
		return runExhaustiveParallel(g, in, emit, opts, disk, res)
	}
	return runExhaustiveSeq(g, in, emit, opts, disk, res)
}

// branchFree reports whether the exhaustive odometer over g can only ever
// hold one branch: no reachable subquery structure offers more than one
// peelable leaf. The walk mirrors the executor's structural order (first
// bud, then first island, then leaf peeling into the heavy and light
// residues) but follows BOTH residues unconditionally — which residues a
// concrete run visits depends on the data, so this is a superset of the
// reachable decision points and the answer true is always safe. Structures
// are memoized by key, bounding the walk the same way the odometer's
// decision map is bounded.
func branchFree(g *hypergraph.Graph, disableSplit bool) bool {
	seen := map[string]bool{}
	var walk func(g *hypergraph.Graph) bool
	walk = func(g *hypergraph.Graph) bool {
		edges := g.Edges()
		if len(edges) <= 1 {
			return true
		}
		key := structureKey(g)
		if seen[key] {
			return true
		}
		seen[key] = true
		for _, e := range edges {
			if g.KindOf(e) == hypergraph.Bud {
				return walk(g.Without([]int{e.ID}, nil))
			}
		}
		for _, e := range edges {
			if g.KindOf(e) == hypergraph.Island {
				return walk(g.Without([]int{e.ID}, nil))
			}
		}
		var leaf *hypergraph.Edge
		for _, e := range edges {
			if g.KindOf(e) == hypergraph.Leaf {
				if leaf != nil {
					return false // a real decision point: more than one leaf
				}
				leaf = e
			}
		}
		if leaf == nil {
			return false // no peelable edge: let the real run raise the error
		}
		v := g.LeafJoinAttr(leaf)
		u := g.UniqueAttrs(leaf)
		if !disableSplit {
			gHeavy := g.Without([]int{leaf.ID}, append(append([]hypergraph.Attr{}, u...), v))
			if !walk(gHeavy) {
				return false
			}
		}
		return walk(g.Without([]int{leaf.ID}, u))
	}
	return walk(g)
}

// runExhaustiveSingle is the single-branch short-circuit: when branchFree
// proves the odometer would enumerate exactly one policy, the dry/wet split
// and the budget-watermark machinery are pure overhead — the sole policy
// runs once, directly, with emission. The recording chooser reproduces the
// odometer's decision map (every decision point gets choice 0), so Policy
// and the prune telemetry look exactly like a one-branch exhaustive run,
// with TotalStats == ExecStats because no dry run ever happened.
func runExhaustiveSingle(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result) (*Result, error) {
	policy := map[string]int{}
	ex := &executor{
		emit:   emit,
		opts:   opts,
		nAttrs: g.MaxAttr() + 1,
		chooser: func(_ *hypergraph.Graph, key string, _ []*hypergraph.Edge, _ relation.Instance) int {
			policy[key] = 0
			return 0
		},
	}
	before := disk.Stats()
	stopPeak := disk.StartMemPeak()
	err := ex.run(g, in)
	peak := stopPeak()
	if err != nil {
		return nil, err
	}
	res.Emitted = ex.emitted
	res.ExecStats = disk.Stats().Sub(before)
	res.ExecStats.MemHiWater = peak
	res.TotalStats = res.ExecStats
	res.Branches = 1
	res.Prune = PruneStats{Started: 1, Completed: 1}
	res.Policy = policy
	return res, nil
}

// runExhaustiveSeq is the sequential reference path: an odometer over
// structure-keyed decision points, one dry run per policy on the shared disk.
//
// Branch-and-bound (unless opts.NoPrune): once an incumbent exists, each dry
// run gets a charge budget of the incumbent's cost and is aborted the moment
// it reaches it. Pruning at >= is always tie-safe here — the incumbent is
// DFS-earlier than every branch still to come, and winner selection breaks
// ties DFS-first (strict <) — so the winning policy is exactly the unpruned
// one. A pruned run may leave later decision points undiscovered, skipping
// their alternative subtrees; every branch in such a subtree shares the
// execution prefix up to the abort, so it too would have charged the full
// bound before diverging and could never have won. At least one branch always
// completes: no budget is armed before the first incumbent exists.
func runExhaustiveSeq(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result) (*Result, error) {
	type branchOutcome struct {
		cost   int64
		policy map[string]int
	}
	var best *branchOutcome
	odo := newOdometer()
	grand := extmem.Stats{}
	for {
		ex := &executor{
			emit:    func(tuple.Assignment) {},
			opts:    opts,
			nAttrs:  g.MaxAttr() + 1,
			chooser: odo.choose,
			dry:     true,
		}
		before := disk.Stats()
		var pruned bool
		var err error
		if !opts.NoPrune && best != nil {
			pruned, err = func() (bool, error) {
				// Disarm on every exit, including a foreign panic unwinding
				// through CatchBudgetExceeded — a leaked watermark would
				// poison the next branch (and the wet re-run).
				defer disk.ClearChargeBudget()
				disk.SetChargeBudget(before.IOs() + best.cost)
				return disk.CatchBudgetExceeded(func() error { return ex.run(g, in) })
			}()
		} else {
			err = ex.run(g, in)
		}
		if err != nil {
			return nil, err
		}
		delta := disk.Stats().Sub(before)
		grand = grand.Add(delta)
		res.Branches++
		res.Prune.Started++
		if pruned {
			res.Prune.Pruned++
			res.Prune.ChargedBeforeAbort += delta.IOs()
		} else {
			res.Prune.Completed++
			if best == nil || delta.IOs() < best.cost {
				best = &branchOutcome{cost: delta.IOs(), policy: odo.snapshot()}
			}
		}
		if trailHook != nil {
			trailHook(odo.trail())
		}
		if !odo.advance() {
			break
		}
		if res.Branches >= maxBranches {
			break
		}
	}
	res.ClampedChoices += odo.clamps
	return finishExhaustive(g, in, emit, opts, disk, res, grand, best.policy)
}

// trailHook, when non-nil, receives each explored branch's decision trail —
// structure keys and chosen leaf indices in discovery order — in DFS
// (odometer) order. Test-only instrumentation: the odometer property tests
// use it to prove the parallel scheduler enumerates exactly the sequential
// branch set.
var trailHook func(keys []string, choices []int)

// finishExhaustive re-runs the winning policy with emission on the shared
// disk and assembles the Result; common tail of both exhaustive paths. The
// wet re-run never carries a charge budget: the winner must execute in full.
func finishExhaustive(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result, grand extmem.Stats, fixed map[string]int) (*Result, error) {
	ex := &executor{
		emit:   emit,
		opts:   opts,
		nAttrs: g.MaxAttr() + 1,
		chooser: func(_ *hypergraph.Graph, key string, leaves []*hypergraph.Edge, in relation.Instance) int {
			if d, ok := fixed[key]; ok {
				if d < len(leaves) {
					return d
				}
				res.ClampedChoices++
			}
			return 0
		},
	}
	before := disk.Stats()
	stopPeak := disk.StartMemPeak()
	err := ex.run(g, in)
	peak := stopPeak()
	if err != nil {
		return nil, err
	}
	res.ExecStats = disk.Stats().Sub(before)
	res.ExecStats.MemHiWater = peak
	res.TotalStats = grand.Add(res.ExecStats)
	res.Emitted = ex.emitted
	res.Policy = fixed
	return res, nil
}

// maxBranches caps policy enumeration; a backstop far above what constant-
// size queries produce in practice.
const maxBranches = 4096

func anyDisk(g *hypergraph.Graph, in relation.Instance) *extmem.Disk {
	for _, e := range g.Edges() {
		return in[e.ID].Disk()
	}
	return nil
}

// chooser resolves the nondeterministic leaf choice: given the current
// subquery, its structure key, and its peelable leaves, return the index to
// peel. The graph lets scoring choosers (StrategyGreedy) read structural
// fan-out; static choosers ignore it.
type chooser func(g *hypergraph.Graph, key string, leaves []*hypergraph.Edge, in relation.Instance) int

func staticChooser(s Strategy) chooser {
	return func(_ *hypergraph.Graph, _ string, leaves []*hypergraph.Edge, in relation.Instance) int {
		if s != StrategySmallest {
			return 0
		}
		best, arg := -1, 0
		for i, e := range leaves {
			if n := in[e.ID].Len(); best < 0 || n < best {
				best, arg = n, i
			}
		}
		return arg
	}
}

// odometer enumerates policies: decision points are discovered during a run
// (keyed by subquery structure) and advanced like a mixed-radix counter.
type odometer struct {
	decisions map[string]int
	radix     map[string]int
	order     []string
	// clamps counts decisions that met fewer options than recorded — same
	// structure reappearing with fewer leaves cannot happen (options are
	// structural), so this stays zero; see Result.ClampedChoices.
	clamps int64
}

func newOdometer() *odometer {
	return &odometer{decisions: map[string]int{}, radix: map[string]int{}}
}

func (o *odometer) choose(_ *hypergraph.Graph, key string, leaves []*hypergraph.Edge, _ relation.Instance) int {
	if d, ok := o.decisions[key]; ok {
		if d >= len(leaves) {
			o.clamps++
			return 0
		}
		return d
	}
	o.decisions[key] = 0
	o.radix[key] = len(leaves)
	o.order = append(o.order, key)
	return 0
}

// trail returns the current branch's decision points in discovery order.
func (o *odometer) trail() (keys []string, choices []int) {
	keys = append([]string(nil), o.order...)
	choices = make([]int, len(keys))
	for i, k := range keys {
		choices[i] = o.decisions[k]
	}
	return keys, choices
}

// advance bumps to the next policy; false when exhausted.
func (o *odometer) advance() bool {
	for i := len(o.order) - 1; i >= 0; i-- {
		k := o.order[i]
		if o.decisions[k]+1 < o.radix[k] {
			o.decisions[k]++
			// Later decision points may not recur; forget them so they are
			// rediscovered fresh.
			for _, later := range o.order[i+1:] {
				delete(o.decisions, later)
				delete(o.radix, later)
			}
			o.order = o.order[:i+1]
			return true
		}
	}
	return false
}

func (o *odometer) snapshot() map[string]int {
	out := make(map[string]int, len(o.decisions))
	for k, v := range o.decisions {
		out[k] = v
	}
	return out
}

// structureKey canonically serializes the subquery hypergraph.
func structureKey(g *hypergraph.Graph) string {
	es := g.Edges()
	parts := make([]string, len(es))
	for i, e := range es {
		a := make([]string, len(e.Attrs))
		for j, x := range e.Attrs {
			a[j] = fmt.Sprint(x)
		}
		parts[i] = fmt.Sprintf("%d:%s", e.ID, strings.Join(a, "."))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// executor runs one branch of Algorithm 2.
type executor struct {
	emit    Emit
	opts    Options
	nAttrs  int
	chooser chooser
	emitted int64
	asg     tuple.Assignment
	// dry marks a planning-only branch: charges are measured but results
	// are not enumerated. Result enumeration is the bind-call-unbind chain
	// over in-memory tuples — it never touches the simulated disk (the emit
	// model delivers results without writing them), so skipping it leaves
	// every counter bit-identical while removing the per-result CPU cost
	// from every dry-run branch. TestDryRunChargesMatchWetRun pins this.
	dry bool
}

func (x *executor) run(g *hypergraph.Graph, in relation.Instance) error {
	x.asg = tuple.NewAssignment(x.nAttrs)
	return x.join(g, in, 0, func() {
		x.emitted++
		x.emit(x.asg)
	})
}

// bindTuple binds the unbound attributes of schema to t, calls next, then
// unbinds exactly what it bound. Attributes already bound must agree (they
// do by construction: restrictions and semijoins preserve shared values).
// Dry runs skip the whole chain: binding charges nothing, so cutting it here
// prunes the entire per-result enumeration tree without touching a counter.
func (x *executor) bindTuple(schema tuple.Schema, t tuple.Tuple, next func()) {
	if x.dry {
		return
	}
	bindInto(x.asg, schema, t, next)
}

// bindInto is the shared bind-call-unbind helper: it binds the unbound
// attributes of schema to t in asg, invokes next, and restores asg.
func bindInto(asg tuple.Assignment, schema tuple.Schema, t tuple.Tuple, next func()) {
	var boundMask uint64
	if len(schema) > 64 {
		panic("core: schema wider than 64 attributes")
	}
	for i, a := range schema {
		if !asg.Has(a) {
			asg.Set(a, t[i])
			boundMask |= 1 << uint(i)
		} else if asg.Get(a) != t[i] {
			panic(fmt.Sprintf("core: inconsistent binding for v%d: %d vs %d", a, asg.Get(a), t[i]))
		}
	}
	next()
	for i, a := range schema {
		if boundMask&(1<<uint(i)) != 0 {
			asg[a] = tuple.Unset
		}
	}
}

// join implements Algorithm 2 (AcyclicJoin). done is invoked once per result
// of the current subquery, with the shared assignment bound. depth counts
// recursion levels (0 = the caller's original query).
func (x *executor) join(g *hypergraph.Graph, in relation.Instance, depth int, done func()) error {
	edges := g.Edges()
	switch {
	case len(edges) == 0:
		done()
		return nil

	case len(edges) == 1:
		// Base case: emit all tuples in R(e).
		e := edges[0]
		r := in[e.ID]
		rd := r.Reader()
		for t := rd.Next(); t != nil; t = rd.Next() {
			x.bindTuple(r.Schema(), t, done)
		}
		return nil
	}

	// Bud: a single-attribute relation on a join attribute. Joining with it
	// is pure filtering; drop it, semijoin-filtering its neighbours unless
	// the instance is known fully reduced (in which case the filter is a
	// no-op, paper lines 3-4).
	for _, e := range edges {
		if g.KindOf(e) != hypergraph.Bud {
			continue
		}
		v := g.LeafJoinAttr(e)
		sub := in.Clone()
		delete(sub, e.ID)
		// Dropping a bud without filtering is only sound when the current
		// instance is known fully reduced — which holds at depth 0 when the
		// caller says so, but never below: restriction views lose the
		// reduction property.
		if !(x.opts.AssumeReduced && depth == 0) {
			budRel, err := in[e.ID].SortDedupBy(v)
			if err != nil {
				return err
			}
			for _, o := range g.Neighbors(e) {
				or, err := in[o.ID].SortBy(v)
				if err != nil {
					return err
				}
				filtered, err := relation.Semijoin(or, budRel, v)
				if err != nil {
					return err
				}
				sub[o.ID] = filtered
			}
		}
		return x.join(g.Without([]int{e.ID}, nil), sub, depth+1, done)
	}

	// Island: cross product with the rest, one memory chunk at a time
	// (paper lines 5-9).
	for _, e := range edges {
		if g.KindOf(e) != hypergraph.Island {
			continue
		}
		r := in[e.ID]
		gRest := g.Without([]int{e.ID}, nil)
		sub := in.Clone()
		delete(sub, e.ID)
		return r.LoadChunks(func(c *relation.Chunk) error {
			return x.join(gRest, sub, depth+1, func() {
				for _, t := range c.Tuples {
					x.bindTuple(r.Schema(), t, done)
				}
			})
		})
	}

	// Leaf peeling (paper lines 10-27).
	var leaves []*hypergraph.Edge
	for _, e := range edges {
		if g.KindOf(e) == hypergraph.Leaf {
			leaves = append(leaves, e)
		}
	}
	if len(leaves) == 0 {
		return fmt.Errorf("core: no island, bud, or leaf in %v (cyclic?)", g)
	}
	pick := x.chooser(g, structureKey(g), leaves, in)
	e := leaves[pick]
	v := g.LeafJoinAttr(e)
	u := g.UniqueAttrs(e)
	gamma := g.Neighbors(e)

	re, err := in[e.ID].SortBy(v)
	if err != nil {
		return err
	}
	sorted := in.Clone()
	for _, o := range gamma {
		or, err := in[o.ID].SortBy(v)
		if err != nil {
			return err
		}
		sorted[o.ID] = or
	}

	if x.opts.DisableHeavySplit {
		return x.peelLeafUnsplit(g, sorted, e, re, v, u, gamma, depth, done)
	}

	heavy, light, err := re.Heavy(v)
	if err != nil {
		return err
	}

	// Heavy values: restrict neighbours to v=a (zero-copy views), remove e,
	// its unique attributes, AND v (all tuples agree on it), possibly
	// disconnecting the query; then cross the recursion's results with each
	// memory chunk of R(e)|v=a.
	gHeavy := g.Without([]int{e.ID}, append(append([]hypergraph.Attr{}, u...), v))
	for _, hgrp := range heavy {
		a := hgrp.Value
		sub := sorted.Clone()
		delete(sub, e.ID)
		for _, o := range gamma {
			sub[o.ID] = sorted[o.ID].FindRange(v, a)
		}
		err := hgrp.Rel.LoadChunks(func(c *relation.Chunk) error {
			return x.join(gHeavy, sub, depth+1, func() {
				for _, t := range c.Tuples {
					x.bindTuple(re.Schema(), t, done)
				}
			})
		})
		if err != nil {
			return err
		}
	}

	// Light values: load whole value groups (≤2M tuples, ≤M distinct
	// values), semijoin each neighbour down to the chunk's values, keep v in
	// the query (no disconnection), and match recursion results against the
	// chunk by v-value.
	gLight := g.Without([]int{e.ID}, u)
	vCol := re.Col(v)
	return light.LoadChunksBy(v, func(c *relation.Chunk) error {
		sub := sorted.Clone()
		delete(sub, e.ID)
		for _, o := range gamma {
			filtered, err := relation.SemijoinValues(sorted[o.ID], v, c.Values)
			if err != nil {
				return err
			}
			sub[o.ID] = filtered
		}
		idx := make(map[int64][]tuple.Tuple, len(c.Values))
		for _, t := range c.Tuples {
			idx[t[vCol]] = append(idx[t[vCol]], t)
		}
		return x.join(gLight, sub, depth+1, func() {
			a := x.asg.Get(v)
			for _, t := range idx[a] {
				x.bindTuple(re.Schema(), t, done)
			}
		})
	})
}

// peelLeafUnsplit is the DisableHeavySplit ablation: the whole sorted leaf
// relation is processed in plain M-tuple chunks regardless of value
// frequencies. Heavy values then straddle chunks, so their neighbours are
// re-semijoined (a full scan) once per chunk instead of being restricted to
// zero-copy views once per value.
func (x *executor) peelLeafUnsplit(g *hypergraph.Graph, sorted relation.Instance,
	e *hypergraph.Edge, re *relation.Relation, v hypergraph.Attr,
	u []hypergraph.Attr, gamma []*hypergraph.Edge, depth int, done func()) error {
	gLight := g.Without([]int{e.ID}, u)
	vCol := re.Col(v)
	return re.LoadChunks(func(c *relation.Chunk) error {
		vals := make(map[int64]bool, len(c.Tuples))
		idx := make(map[int64][]tuple.Tuple, len(c.Tuples))
		for _, t := range c.Tuples {
			vals[t[vCol]] = true
			idx[t[vCol]] = append(idx[t[vCol]], t)
		}
		sub := sorted.Clone()
		delete(sub, e.ID)
		for _, o := range gamma {
			filtered, err := relation.SemijoinValues(sorted[o.ID], v, vals)
			if err != nil {
				return err
			}
			sub[o.ID] = filtered
		}
		return x.join(gLight, sub, depth+1, func() {
			a := x.asg.Get(v)
			for _, t := range idx[a] {
				x.bindTuple(re.Schema(), t, done)
			}
		})
	})
}
