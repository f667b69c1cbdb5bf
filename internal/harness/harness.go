// Package harness defines the experiment registry that regenerates every
// table and figure of the paper as a measured experiment on the simulated
// external-memory machine, shared by cmd/joinbench and the root package's
// benchmarks. Each experiment produces an ASCII table comparing measured
// block I/Os against the paper's bound formula; EXPERIMENTS.md records the
// outcomes.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"acyclicjoin/internal/cli"
)

// Params configures an experiment run.
type Params struct {
	// M and B are the machine parameters (tuples per memory / per block).
	M, B int
	// Scale multiplies the experiment's base input sizes; 1 is the default
	// test scale, benchmarks use larger values.
	Scale int
	// Seed feeds the randomized workloads.
	Seed int64
	// NoMemo disables the charge-replay operator memo: newBackendDisk, which
	// builds every experiment machine, attaches none, and core attaches none
	// of its own.
	// Tables are byte-identical either way (replay charges exactly what the
	// real operator would); the switch exists for A/B timing and for proving
	// that claim. E23 pins the memo on wherever its arms set it, since its
	// rows report what the memo replays and fault counts that follow the
	// performed transfers; only its pruning arms follow this knob.
	NoMemo bool
	// NoPrune disables branch-and-bound pruning of exhaustive-strategy dry
	// runs in the experiments that honor it. Experiment tables report
	// execution-cost figures that pruning provably does not change, so every
	// table is byte-identical under either setting; experiments whose PURPOSE
	// is the paper's full Σ-branches planning accounting (E4's
	// "incl. planning" row) or a full-stats memo A/B (E23's memo arms) pin
	// NoPrune internally and ignore this knob. E23's pruning arms measure
	// the pruned-vs-unpruned difference explicitly.
	NoPrune bool
	// Backend selects the storage engine every experiment machine is built
	// on: "sim" (or empty) for the counting simulator, "file" for the
	// os.File-backed engine, which physically executes and verifies each
	// charged transfer. Tables are byte-identical across backends — the
	// model sits above the backend seam — so the switch exists for the
	// differential suite (E23's file arm) and for running the whole registry
	// as a real systems benchmark. An empty value falls back to the
	// ACYCLICJOIN_BACKEND environment variable.
	Backend string
	// DataDir is where the file backend keeps its backing files; empty means
	// the ACYCLICJOIN_DATADIR environment variable, then the system temp
	// directory with files unlinked at creation.
	DataDir string
	// Strategy, when non-empty, restricts the verification sweep to one
	// peeling strategy ("exhaustive", "first", "smallest", "greedy") instead
	// of sweeping them all — the hook that lets CI re-run the whole
	// randomized suite under the greedy planner with zero code changes. An
	// empty value falls back to the ACYCLICJOIN_STRATEGY environment
	// variable, then to the full sweep. Experiments pin their strategies
	// per measurement and ignore this knob.
	Strategy string
	// DevFaultRate, when > 0 and Backend is "file", arms a device-layer
	// fault plan (seed 1) on every experiment machine's storage engine,
	// injecting transient syscall faults at this per-call probability. The
	// engine absorbs every transient below the backend seam, so tables stay
	// byte-identical — the hook that lets CI re-run the whole registry under
	// device chaos with zero code changes. 0 falls back to the
	// ACYCLICJOIN_DEVFAULTRATE environment variable. Ignored by the sim
	// backend (no syscalls to fault); E23's device arms pin their own
	// fault schedules and ignore this knob.
	DevFaultRate float64
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.M == 0 {
		p.M = 256
	}
	if p.B == 0 {
		p.B = 16
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	p.Backend = cli.BackendName(p.Backend)
	if p.Backend == "" {
		p.Backend = "sim"
	}
	p.DataDir = cli.DataDir(p.DataDir)
	p.Strategy = cli.StrategyName(p.Strategy)
	if p.DevFaultRate == 0 {
		// Lenient: a malformed env value means no device faults here;
		// RunContext is where it errors.
		if r, err := cli.DevFaultRate(); err == nil {
			p.DevFaultRate = r
		}
	}
	return p
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render produces an aligned ASCII table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md ("E4").
	ID string
	// Artifact names the paper artifact ("Table 1 row L3; Theorem 1; Fig 3").
	Artifact string
	// Title is a one-line description.
	Title string
	// Run executes the experiment and returns its table.
	Run func(p Params) (*Table, error)
}

var registry = map[string]*Experiment{}

// Register adds an experiment; called from init functions in this package.
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID, or nil.
func Get(id string) *Experiment { return registry[id] }

// All returns the experiments sorted by ID.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E1 < E2 < ... < E10.
		return expKey(out[i].ID) < expKey(out[j].ID)
	})
	return out
}

func expKey(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// Outcome pairs an experiment with its result (table or error).
type Outcome struct {
	Exp   *Experiment
	Table *Table
	Err   error
}

// RunAll executes the experiments with at most parallelism in flight at once
// (values <= 1 run sequentially, in order) and returns the outcomes in input
// order. Experiments are independent — each builds its own simulated disk
// and seeds its own generators from Params — so concurrent execution yields
// tables bit-identical to a sequential sweep.
func RunAll(exps []*Experiment, p Params, parallelism int) []Outcome {
	return RunAllCtx(context.Background(), exps, p, parallelism)
}

// RunAllCtx is RunAll with cancellation between experiments: once ctx is
// done, experiments not yet started are skipped with Err set to the
// cancellation cause (an in-flight experiment still runs to completion —
// experiments own their disks, so there is no handle to abort one midway).
func RunAllCtx(ctx context.Context, exps []*Experiment, p Params, parallelism int) []Outcome {
	out := make([]Outcome, len(exps))
	cancelled := func(i int, e *Experiment) bool {
		if ctx.Err() == nil {
			return false
		}
		out[i] = Outcome{Exp: e, Err: fmt.Errorf("harness: skipped: %w", context.Cause(ctx))}
		return true
	}
	if parallelism <= 1 {
		for i, e := range exps {
			if cancelled(i, e) {
				continue
			}
			tab, err := e.Run(p)
			out[i] = Outcome{Exp: e, Table: tab, Err: err}
		}
		return out
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e *Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cancelled(i, e) {
				return
			}
			tab, err := e.Run(p)
			out[i] = Outcome{Exp: e, Table: tab, Err: err}
		}(i, e)
	}
	wg.Wait()
	return out
}

// Ratio formats measured/bound with guards against zero bounds.
func Ratio(measured int64, bound float64) string {
	if bound <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(measured)/bound)
}
