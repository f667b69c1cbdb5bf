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
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// Emit receives one join result as an assignment over the query's
// attributes. The assignment is reused between calls; copy it to retain it.
//
// A nil Emit asks for the count only: Run delivers no result and reports how
// many there are in Result.Emitted. Algorithm 2 then counts instead of
// enumerating: a row loop reports rows that agree on every attribute an outer
// callback reads as one multiplicity, and a loop binding nothing read as one
// multiplicity for all its rows (DESIGN.md "Counting without enumerating").
// Enumeration touches no disk, so every charge, the plan and every Stats
// figure are the same as with an emit.
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
	// NoPrune disables branch-and-bound pruning of dry-run branches under
	// StrategyExhaustive. With pruning on (the default), a dry run is aborted
	// the moment its charged I/O reaches the best completed branch's cost:
	// charges are monotone, so such a branch can never win, and the abort
	// provably changes neither the emitted results, nor ExecStats, nor the
	// winning Policy (DESIGN.md "Branch pruning" has the tie-break proof).
	// What pruning does change is TotalStats, which then counts only the
	// charges made before each abort instead of the paper's full "Σ branches"
	// round-robin accounting. Set NoPrune to restore the paper's TotalStats
	// semantics. Either way the whole Result is deterministic: branches run
	// one after another in odometer order.
	NoPrune bool
}

// Result reports the outcome of a Run.
type Result struct {
	// Emitted counts join results delivered to emit; with a nil emit it is
	// the number of results, counted without enumerating them.
	Emitted int64
	// ExecStats is the I/O cost of the emitting run (the winning branch
	// under StrategyExhaustive; the only run otherwise; for RunLine,
	// everything the dispatcher charged, nested runs included). Its
	// MemHiWater is the emitting run's own peak, not the disk's lifetime
	// hi-water mark: the planning phase's peak belongs to TotalStats, and
	// scoping it there is what keeps ExecStats bit-identical with pruning on
	// or off.
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
	// (Started equals Branches; Pruned is zero under Options.NoPrune). Like
	// the rest of the Result it is deterministic.
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
	// Line is the Section 6 plan RunLine evaluated; nil for Run.
	Line *LinePlan
}

// PruneStats is branch-and-bound telemetry for one exhaustive run.
type PruneStats struct {
	// Started counts dry-run branches begun; Pruned of them were aborted at
	// the incumbent bound and Completed ran to the end.
	Started, Pruned, Completed int
	// ChargedBeforeAbort totals the I/Os the pruned branches charged before
	// aborting; these charges are included in TotalStats. The I/Os pruning
	// *saved* are whatever the aborted suffixes would have charged — not
	// observable inside a pruned run; harness experiment E23 measures them
	// A/B against an unpruned run.
	ChargedBeforeAbort int64
}

// MemFactor is the constant c of the c·M memory allowance a run of g needs:
// each of the at most |E|−1 recursion levels holds one loaded chunk of fewer
// than 2M tuples while it recurses, and the deepest level's operator (a sort
// holds M+B) fits in the remaining 2M. It is never below
// extmem.DefaultMemFactor, so the allowance of a small query stays 16·M.
func MemFactor(g *hypergraph.Graph) int {
	return max(extmem.DefaultMemFactor, 2*g.NumEdges())
}

// Run evaluates the Berge-acyclic join (g, in), invoking emit per result.
// A nil emit counts the results into Result.Emitted instead; see Emit.
//
// Permanent faults and cancellation surface here as typed errors: the whole
// strategy dispatch runs under CatchAbort, so an abort from any charge unwinds
// the disk (phases, recorders, peak watches, budget watermark) and returns the
// *FaultError / ErrCancelled cause instead of panicking through the caller.
//
// Run uses whatever operator memo the instance's disk carries (see
// opcache.Enable) and attaches none itself: whoever builds the disk decides
// whether its operators replay.
func Run(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options) (*Result, error) {
	if !g.IsBergeAcyclic() {
		return nil, fmt.Errorf("core: query %v is not Berge-acyclic", g)
	}
	if err := in.Validate(g, false); err != nil {
		return nil, err
	}
	disk := anyDisk(g, in)
	return guarded(disk, func() (*Result, error) {
		return runStrategy(g, in, emit, opts, disk, &Result{Policy: map[string]int{}})
	})
}

// guarded runs f under disk's CatchAbort, so that permanent faults and
// cancellation unwind the disk and surface as typed errors, not panics.
func guarded(disk *extmem.Disk, f func() (*Result, error)) (*Result, error) {
	var out *Result
	pruned, err := disk.CatchAbort(func() error {
		var e error
		out, e = f()
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
	steps := newStepTable()
	if opts.Strategy == StrategyGreedy {
		return runGreedy(g, in, emit, opts, disk, res, steps)
	}
	if opts.Strategy != StrategyExhaustive {
		ex := newExecutor(g, emit, opts, staticChooser(opts.Strategy), steps)
		st, err := measure(disk, func() error { return ex.run(g, in) })
		if err != nil {
			return nil, err
		}
		res.Emitted, res.ExecStats, res.TotalStats, res.Branches = ex.emitted, st, st, 1
		return res, nil
	}

	if branchFree(steps.of(g), opts.DisableHeavySplit) {
		return runExhaustiveSingle(g, in, emit, opts, disk, res, steps)
	}
	return runExhaustiveSeq(g, in, emit, opts, disk, res, steps)
}

// runExhaustiveSingle is the single-branch short-circuit: when branchFree
// proves the odometer would enumerate exactly one policy, the dry/wet split
// and the budget-watermark machinery are pure overhead — the sole policy
// runs once, directly, with emission. The recording chooser reproduces the
// odometer's decision map (every decision point gets choice 0), so Policy
// and the prune telemetry look exactly like a one-branch exhaustive run,
// with TotalStats == ExecStats because no dry run ever happened.
func runExhaustiveSingle(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result, steps *stepTable) (*Result, error) {
	policy := map[string]int{}
	ex := newExecutor(g, emit, opts, func(_ *hypergraph.Graph, key string, _ []*hypergraph.Edge, _ relation.Instance) int {
		policy[key] = 0
		return 0
	}, steps)
	st, err := measure(disk, func() error { return ex.run(g, in) })
	if err != nil {
		return nil, err
	}
	res.Emitted, res.ExecStats, res.TotalStats, res.Branches = ex.emitted, st, st, 1
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
func runExhaustiveSeq(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result, steps *stepTable) (*Result, error) {
	type branchOutcome struct {
		cost   int64
		policy map[string]int
	}
	var best *branchOutcome
	odo := newOdometer()
	grand := extmem.Stats{}
	for {
		ex := newExecutor(g, nil, opts, odo.choose, steps)
		ex.dry = true
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
		if !odo.advance() {
			break
		}
		if res.Branches >= maxBranches {
			break
		}
	}
	res.ClampedChoices += odo.clamps
	return finishExhaustive(g, in, emit, opts, disk, res, grand, best.policy, steps)
}

// finishExhaustive re-runs the winning policy with emission on the shared
// disk and assembles the Result. The wet re-run never carries a charge
// budget: the winner must execute in full.
func finishExhaustive(g *hypergraph.Graph, in relation.Instance, emit Emit, opts Options, disk *extmem.Disk, res *Result, grand extmem.Stats, fixed map[string]int, steps *stepTable) (*Result, error) {
	ex := newExecutor(g, emit, opts, func(_ *hypergraph.Graph, key string, leaves []*hypergraph.Edge, in relation.Instance) int {
		if d, ok := fixed[key]; ok {
			if d < len(leaves) {
				return d
			}
			res.ClampedChoices++
		}
		return 0
	}, steps)
	st, err := measure(disk, func() error { return ex.run(g, in) })
	if err != nil {
		return nil, err
	}
	res.Emitted, res.ExecStats, res.TotalStats, res.Policy = ex.emitted, st, grand.Add(st), fixed
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
// Each edge renders as "<id>:<a>.<b>..." into one shared buffer; the parts
// are sorted and joined by ";". Result.Policy is keyed by these strings, so
// the format is fixed.
func structureKey(g *hypergraph.Graph) string {
	es := g.Edges()
	var buf []byte
	parts := make([][]byte, len(es))
	for i, e := range es {
		start := len(buf)
		buf = append(strconv.AppendInt(buf, int64(e.ID), 10), ':')
		for j, x := range e.Attrs {
			if j > 0 {
				buf = append(buf, '.')
			}
			buf = strconv.AppendInt(buf, int64(x), 10)
		}
		parts[i] = buf[start:len(buf):len(buf)]
	}
	slices.SortFunc(parts, bytes.Compare)
	return string(bytes.Join(parts, []byte{';'}))
}

// executor runs one branch of Algorithm 2.
type executor struct {
	emit    Emit // nil: count only
	opts    Options
	nAttrs  int
	chooser chooser
	emitted int64
	asg     tuple.Assignment
	// blockRows holds the row headers of the base case's current block.
	blockRows []tuple.Tuple
	// dry marks a planning-only branch: charges are measured but results
	// are not enumerated. Result enumeration is the bind-call-unbind chain
	// over in-memory tuples — it never touches the simulated disk (the emit
	// model delivers results without writing them), so skipping it leaves
	// every charge bit-identical while removing the per-result CPU cost
	// from every dry-run branch. TestDryRunChargesMatchWetRun pins this.
	// With no tuple to look at, a dry base case bills its scan unread
	// (Reader.Bill), so only the seam ledger tells a dry run from a wet one.
	dry bool
	// steps is the Run's step table, shared by all its executors; run makes
	// one for an executor built without it.
	steps *stepTable
}

// readsAll is the read mask of a consumer that reads every attribute: an
// emitting run, or a count-only query whose attribute IDs do not all fit in
// a 64-bit mask. Under it every row loop binds its rows.
const readsAll = ^uint64(0)

// attrMask is the set attrs as a mask, bit a for attribute a. An ID past 63
// makes it readsAll, so such an attribute meets every read mask.
func attrMask(attrs ...int) uint64 {
	var m uint64
	for _, a := range attrs {
		if a >= 64 {
			return readsAll
		}
		m |= 1 << uint(a)
	}
	return m
}

// body is one evaluation on an executor: it reports its results to done the
// way join does, reads being the mask of the attributes a callback reads.
type body func(reads uint64, done func(int64)) error

// newExecutor builds an executor over g's attributes.
func newExecutor(g *hypergraph.Graph, emit Emit, opts Options, ch chooser, steps *stepTable) *executor {
	return &executor{emit: emit, opts: opts, nAttrs: g.MaxAttr() + 1, chooser: ch, steps: steps}
}

// start readies x for one evaluation and returns the read mask and the done
// callback of its outermost loop: done counts the results and, when x emits,
// delivers each one.
func (x *executor) start() (uint64, func(int64)) {
	x.asg = tuple.NewAssignment(x.nAttrs)
	var reads uint64
	if x.emit != nil || x.nAttrs > 64 {
		reads = readsAll
	}
	return reads, func(k int64) {
		x.emitted += k
		if x.emit != nil {
			x.emit(x.asg)
		}
	}
}

// run evaluates (g, in) with Algorithm 2.
func (x *executor) run(g *hypergraph.Graph, in relation.Instance) error {
	if x.steps == nil {
		x.steps = newStepTable()
	}
	reads, done := x.start()
	return x.join(x.steps.of(g), in, 0, reads, done)
}

// measure calls run, one evaluation on x, and returns the charges it made.
// Their MemHiWater is the run's own peak, not the disk's lifetime mark (see
// Result.ExecStats).
func measure(disk *extmem.Disk, run func() error) (extmem.Stats, error) {
	before := disk.Stats()
	stopPeak := disk.StartMemPeak()
	err := run()
	peak := stopPeak()
	st := disk.Stats().Sub(before)
	st.MemHiWater = peak
	return st, err
}

// extend is every row loop of Algorithm 2 and of the Section 6 line
// algorithms. It is called when k results of the subquery below extend the
// current binding, crosses them with rows (over schema) and reports the
// k·len(rows) results to done. bound is the
// mask of the attributes the loop binds and reads the mask of those an outer
// callback reads. Rows that agree on every attribute read lead the rest of
// the chain the same way, so a run of m such rows is bound once and reported
// as done(k·m); when bound misses reads the whole loop is one
// done(k·len(rows)). An emitting run reads everything and binds each row with
// done(k). A dry run enumerates nothing: binding charges nothing, so cutting
// the chain here prunes the whole per-result tree without touching a
// counter.
func (x *executor) extend(rows []tuple.Tuple, schema tuple.Schema, bound, reads uint64, k int64, done func(int64)) {
	n := len(rows)
	if x.dry || n == 0 {
		return
	}
	counting := reads != readsAll
	if counting && bound&reads == 0 {
		done(k * int64(n))
		return
	}
	var cols uint64 // schema positions of the read attributes
	if counting {
		for c, a := range schema {
			if attrMask(a)&reads != 0 {
				cols |= 1 << uint(c)
			}
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for counting && j < n && sameOn(rows[i], rows[j], cols) {
			j++
		}
		m := bind(x.asg, schema, rows[i])
		done(k * int64(j-i))
		unbind(x.asg, schema, m)
		i = j
	}
}

// sameOn reports whether rows a and b agree on the columns set in cols.
func sameOn(a, b tuple.Tuple, cols uint64) bool {
	for c := range a {
		if cols&(1<<uint(c)) != 0 && a[c] != b[c] {
			return false
		}
	}
	return true
}

// bind binds the unbound attributes of schema to t in asg and returns the
// mask of the schema positions it bound, for unbind. Attributes already
// bound must agree (they do by construction: restrictions and semijoins
// preserve shared values).
func bind(asg tuple.Assignment, schema tuple.Schema, t tuple.Tuple) uint64 {
	var boundMask uint64
	if len(schema) > 64 {
		panic("core: schema wider than 64 attributes")
	}
	for i, a := range schema {
		if cur := asg[a]; cur == tuple.Unset {
			asg[a] = t[i]
			boundMask |= 1 << uint(i)
		} else if cur != t[i] {
			panic(fmt.Sprintf("core: inconsistent binding for v%d: %d vs %d", a, cur, t[i]))
		}
	}
	return boundMask
}

// unbind restores the schema positions bind reported binding.
func unbind(asg tuple.Assignment, schema tuple.Schema, boundMask uint64) {
	for i, a := range schema {
		if boundMask&(1<<uint(i)) != 0 {
			asg[a] = tuple.Unset
		}
	}
}

// join implements Algorithm 2 (AcyclicJoin) on the subquery of step s.
// done(k) reports k results of the subquery that extend the shared
// assignment as it is bound at the call; reads is the mask of the attributes
// some outer callback reads from that assignment (see extend). depth counts
// recursion levels (0 = the caller's original query).
//
// join reads in only at the edges of s's subquery and never writes it, so a
// caller may hand the same instance to many recursions and change entries
// between them.
func (x *executor) join(s *step, in relation.Instance, depth int, reads uint64, done func(int64)) error {
	switch s.kind {
	case stepEmpty:
		done(1)
		return nil

	case stepBase:
		// Base case: emit all tuples in R(e), one block at a time. A dry
		// run never touches a tuple, so it bills the scan without moving a
		// block.
		r := in[s.edge.ID]
		rd := r.Reader()
		if x.dry {
			rd.Bill()
			return nil
		}
		schema := r.Schema()
		bound := attrMask(schema...)
		w, slot := len(schema), max(len(schema), 1)
		for cells, n := rd.Block(); n > 0; cells, n = rd.Block() {
			// One buffer serves every base case: the callbacks that extend
			// calls never recurse into join, so no other base case runs
			// before this block is done.
			rows := x.blockRows[:0]
			for i := range n {
				rows = append(rows, cells[i*slot:i*slot+w])
			}
			x.blockRows = rows
			x.extend(rows, schema, bound, reads, 1, done)
			rd.Skip(n)
		}
		return nil

	case stepBud:
		// Bud: a single-attribute relation on a join attribute. Joining with
		// it is pure filtering; drop it, semijoin-filtering its neighbours
		// unless the instance is known fully reduced (in which case the
		// filter is a no-op, paper lines 3-4). Dropping a bud without
		// filtering is only sound when the current instance is known fully
		// reduced — which holds at depth 0 when the caller says so, but
		// never below: restriction views lose the reduction property.
		if x.opts.AssumeReduced && depth == 0 {
			return x.join(s.next(), in, depth+1, reads, done)
		}
		budRel, err := in[s.edge.ID].SortDedupBy(s.v)
		if err != nil {
			return err
		}
		sub := x.steps.sub(depth, in)
		for _, o := range s.gamma {
			or, err := in[o.ID].SortBy(s.v)
			if err != nil {
				return err
			}
			filtered, err := relation.Semijoin(or, budRel, s.v)
			if err != nil {
				return err
			}
			sub[o.ID] = filtered
		}
		return x.join(s.next(), sub, depth+1, reads, done)

	case stepIsland:
		// Island: cross product with the rest, one memory chunk at a time
		// (paper lines 5-9).
		r := in[s.edge.ID]
		bound := attrMask(r.Schema()...)
		rest := s.next()
		return r.LoadChunks(func(c *relation.Chunk) error {
			return x.join(rest, in, depth+1, reads, func(k int64) {
				x.extendChunk(c, r.Schema(), bound, reads, k, done)
			})
		})

	case stepStuck:
		return fmt.Errorf("core: no island, bud, or leaf in %v (cyclic?)", s.g)
	}

	// Leaf peeling (paper lines 10-27).
	pick := x.chooser(s.g, s.key, s.leaves, in)
	e, p := s.leaves[pick], s.peel(pick)
	re, err := in[e.ID].SortBy(p.v)
	if err != nil {
		return err
	}
	// One sub-instance serves the whole peel: each heavy value and each
	// chunk only overwrites the Γ(e) entries before its recursion.
	sub := x.steps.sub(depth, in)
	sorted := make([]*relation.Relation, len(p.gamma))
	for i, o := range p.gamma {
		if sorted[i], err = in[o.ID].SortBy(p.v); err != nil {
			return err
		}
	}

	if x.opts.DisableHeavySplit {
		return x.peelLeafUnsplit(p, sub, sorted, re, depth, reads, done)
	}

	// Light values: load whole value groups (≤2M tuples, ≤M distinct
	// values), semijoin each neighbour down to the chunk's values, keep v in
	// the query (no disconnection), and match recursion results against the
	// chunk by v-value. The match reads v, so the recursion must bind it.
	// The chunks come in increasing v order, so each neighbour's filters
	// are one merge pass: a chunk's filter resumes where the previous one
	// stopped. The same pass finds the heavy values.
	from := make([]int, len(p.gamma))
	heavy, err := re.LoadChunksBy(p.v, func(c *relation.Chunk) error {
		return x.joinChunk(p, sub, sorted, from, c, c.Values, c.Starts, re.Schema(), depth, reads, done)
	})
	if err != nil {
		return err
	}

	// Heavy values: restrict neighbours to v=a (zero-copy views), remove e,
	// its unique attributes, AND v (all tuples agree on it), possibly
	// disconnecting the query; then cross the recursion's results with each
	// memory chunk of R(e)|v=a.
	bound := attrMask(re.Schema()...)
	for _, hgrp := range heavy {
		for i, o := range p.gamma {
			sub[o.ID] = sorted[i].FindRange(p.v, hgrp.Value)
		}
		err := hgrp.Rel.LoadChunks(func(c *relation.Chunk) error {
			return x.join(p.heavy, sub, depth+1, reads, func(k int64) {
				x.extendChunk(c, re.Schema(), bound, reads, k, done)
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// extendChunk is extend over the rows of a loaded chunk. A dry run reads no
// row, so it builds no row headers either.
func (x *executor) extendChunk(c *relation.Chunk, schema tuple.Schema, bound, reads uint64, k int64, done func(int64)) {
	if !x.dry {
		x.extend(c.Rows(), schema, bound, reads, k, done)
	}
}

// joinChunk is the light-value step of peel p for one chunk of the leaf
// relation, sorted by v with distinct values vals and group offsets starts:
// it semijoins each sorted neighbour down to vals into sub and recurses on
// the light residue, matching its results against the chunk. from holds one
// resume index per neighbour: neighbour i is filtered from from[i] on, and
// from[i] moves to where its filter stopped, which is sound while every
// value of the chunk is above every value of the chunks before it.
func (x *executor) joinChunk(p *leafPeel, sub relation.Instance, sorted []*relation.Relation, from []int, c *relation.Chunk,
	vals []int64, starts []int, schema tuple.Schema, depth int, reads uint64, done func(int64)) error {
	for i, o := range p.gamma {
		filtered, stop, err := relation.SemijoinValues(sorted[i], p.v, vals, from[i])
		if err != nil {
			return err
		}
		from[i], sub[o.ID] = stop, filtered
	}
	return x.join(p.light, sub, depth+1, reads|attrMask(p.v),
		x.matchChunk(depth, c, vals, starts, p.v, p.u, schema, reads, done))
}

// matchChunk returns the callback that extends each recursion result with
// the rows of chunk c whose v-value it bound. The chunk is sorted by v, with
// distinct values vals and group offsets starts (see relation.GroupRows), so
// the matching rows are found by a binary search over the values, skipped
// when the value repeats the previous probe's. The rows bind the leaf's
// unique attributes u (v is bound already). The callback is the Run's
// chunkMatch of recursion depth depth, reset for c, so a chunk allocates
// none. A dry run enumerates nothing and gets a no-op. It must not be
// handed done instead: the zero-edge base case calls its callback directly,
// and done would count a result.
func (x *executor) matchChunk(depth int, c *relation.Chunk, vals []int64, starts []int, v hypergraph.Attr,
	u []hypergraph.Attr, schema tuple.Schema, reads uint64, done func(int64)) func(int64) {
	if x.dry {
		return func(int64) {}
	}
	m := x.steps.match(depth)
	m.x, m.chunk, m.vals, m.starts, m.v, m.schema = x, c, vals, starts, v, schema
	m.bound, m.reads, m.done, m.last, m.rows = attrMask(u...), reads, done, tuple.Unset, nil
	return m.fn
}

// chunkMatch is the state of one matchChunk callback: its arguments, the
// previous probe's value and group, and fn, its match method as a func
// value, made once.
type chunkMatch struct {
	x            *executor
	chunk        *relation.Chunk
	vals         []int64
	starts       []int
	v            hypergraph.Attr
	schema       tuple.Schema
	bound, reads uint64
	done         func(int64)
	last         int64
	rows         []tuple.Tuple
	fn           func(int64)
}

func (m *chunkMatch) match(k int64) {
	if a := m.x.asg.Get(m.v); a != m.last {
		m.last, m.rows = a, relation.GroupRows(m.chunk.Rows(), m.vals, m.starts, a)
	}
	m.x.extend(m.rows, m.schema, m.bound, m.reads, k, m.done)
}

// peelLeafUnsplit is the DisableHeavySplit ablation: the whole sorted leaf
// relation re is processed in plain M-tuple chunks regardless of value
// frequencies. Heavy values then straddle chunks, so their neighbours are
// re-semijoined once per chunk instead of being restricted to zero-copy
// views once per value.
func (x *executor) peelLeafUnsplit(p *leafPeel, sub relation.Instance, sorted []*relation.Relation,
	re *relation.Relation, depth int, reads uint64, done func(int64)) error {
	vCol := re.Col(p.v)
	from := make([]int, len(p.gamma))
	return re.LoadChunks(func(c *relation.Chunk) error {
		// re is sorted by v, so each chunk's distinct values come in order.
		// A chunk may start with the previous one's last value, so every
		// filter starts at its neighbour's first tuple.
		clear(from)
		vals, starts := c.Runs(vCol)
		return x.joinChunk(p, sub, sorted, from, c, vals, starts, re.Schema(), depth, reads, done)
	})
}
