package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
		"E19", "E20", "E21", "E22", "E23", "E28"}
	for _, id := range want {
		if Get(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	// Sorted numerically.
	for i := 1; i < len(all); i++ {
		if expKey(all[i-1].ID) > expKey(all[i].ID) {
			t.Fatalf("registry not sorted: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Notes:  []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("xx", 1e9)
	s := tab.Render()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "note: a note") {
		t.Fatalf("render:\n%s", s)
	}
	if !strings.Contains(s, "2.50") || !strings.Contains(s, "1e+09") {
		t.Fatalf("float formatting wrong:\n%s", s)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 0) != "-" {
		t.Error("zero bound should render '-'")
	}
	if Ratio(10, 4) != "2.50" {
		t.Errorf("ratio = %s", Ratio(10, 4))
	}
}

// Every experiment must run clean at small scale. This is the integration
// test for the whole stack: algorithms, workloads, bounds. The
// knob-invariance experiment runs one subtest per arm group, named after the
// experiment the group was before the tables were merged.
func TestAllExperimentsSmallScale(t *testing.T) {
	p := Params{M: 64, B: 8, Scale: 1, Seed: 42}
	check := func(t *testing.T, id string, run func(Params) (*Table, error)) {
		tab, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if out := tab.Render(); len(out) == 0 {
			t.Fatalf("%s rendered empty", id)
		}
	}
	for _, e := range All() {
		if e.ID != "E23" {
			t.Run(e.ID, func(t *testing.T) { check(t, e.ID, e.Run) })
			continue
		}
		for i, g := range armGroups {
			t.Run(g.id, func(t *testing.T) {
				check(t, g.id, func(p Params) (*Table, error) { return runInvariance(p, armGroups[i:i+1]) })
			})
		}
	}
}

// Shape assertions at small scale: optimal algorithms must stay within a
// generous constant factor of their bound (the Õ hides a log factor).
func TestBoundTracking(t *testing.T) {
	p := Params{M: 64, B: 8, Scale: 1, Seed: 7}
	checks := map[string]float64{
		"E1":  64, // ratio column tolerance
		"E4":  64,
		"E10": 64,
		"E11": 64,
	}
	for id, tol := range checks {
		tab, err := Get(id).Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ratioCol := -1
		for i, h := range tab.Header {
			if h == "ratio" {
				ratioCol = i
			}
		}
		if ratioCol < 0 {
			t.Fatalf("%s has no ratio column", id)
		}
		for _, row := range tab.Rows {
			var r float64
			if _, err := fmt.Sscan(row[ratioCol], &r); err != nil {
				continue
			}
			if r > tol {
				t.Errorf("%s: ratio %v exceeds tolerance %v (row %v)", id, r, tol, row)
			}
		}
	}
}

// The randomized verification sweep is itself part of the test suite (it
// caught a real soundness bug in bud peeling under AssumeReduced).
func TestVerifySweep(t *testing.T) {
	tab, err := VerifySweep(Params{Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// A scoped sweep (Params.Strategy set) must restrict the matrix to the named
// strategy's arms and reject unknown names; the scoped sweep still passes
// against the oracle.
func TestVerifySweepScoped(t *testing.T) {
	sweep, variant, err := strategySweep(Params{Strategy: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 1 || sweep[0].Strategy != core.StrategyGreedy || variant != core.StrategyGreedy {
		t.Fatalf("greedy sweep = %+v, variant %v", sweep, variant)
	}
	if sweep, _, err = strategySweep(Params{Strategy: "exhaustive"}); err != nil || len(sweep) != 2 {
		t.Fatalf("exhaustive sweep = %+v, err %v", sweep, err)
	}
	if _, _, err = strategySweep(Params{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := VerifySweep(Params{Seed: 2, Strategy: "greedy"}, 4); err != nil {
		t.Fatal(err)
	}
}

// greedyProbeBlocks mirrors internal/core's bound on the blocks one greedy
// probe reads from one relation.
const greedyProbeBlocks = 4

// greedyProbeBudget is the planning cost greedy.go documents, summed over a
// run's decisions: each candidate probes itself and each of its neighbours,
// at most greedyProbeBlocks blocks each, plus one more block when the view
// starts mid-block.
func greedyProbeBudget(r *core.Result) int64 {
	var budget int64
	for _, d := range r.Greedy {
		for _, c := range d.Candidates {
			budget += int64(1+c.Fanout) * (greedyProbeBlocks + 1)
		}
	}
	return budget
}

// E28's acceptance thresholds, checked at test scale on every multi-branch
// memo workload: greedy planning I/Os within the probe budget, and a plan
// within 1.5x of the oracle's best branch. On the line workloads, whose
// exhaustive sweeps run to thousands of I/Os, greedy's planning must also
// stay under 10% of the sweep's. star-2 worst case is exempt from that
// relative bound: its exhaustive sweep is 138 I/Os at test scale against
// greedy's 20, which the budget already fixes, so the ratio measures the
// sweep, not greedy. (Row equality is enforced inside runE28 itself — a
// mismatch is an error, not a cell.)
func TestE28Thresholds(t *testing.T) {
	p := Params{Seed: 1}.WithDefaults()
	for w := range memoWorkloads {
		gr, err := runArm(p, w, arm{strategy: core.StrategyGreedy, emit: true})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := runArm(p, w, arm{emit: true})
		if err != nil {
			t.Fatal(err)
		}
		if ex.res.Branches < 2 {
			t.Fatalf("%s: expected a multi-branch workload, oracle explored %d",
				memoWorkloads[w].name, ex.res.Branches)
		}
		planG, planE := planningIOs(gr.res), planningIOs(ex.res)
		budget := greedyProbeBudget(gr.res)
		t.Logf("%s: greedy planning %d I/Os, budget %d, exhaustive %d",
			memoWorkloads[w].name, planG, budget, planE)
		if planG > budget {
			t.Errorf("%s: greedy planning %d I/Os > probe budget %d",
				memoWorkloads[w].name, planG, budget)
		}
		if memoWorkloads[w].name != "star-2 worst case" && planG*10 > planE {
			t.Errorf("%s: greedy planning %d I/Os > 10%% of exhaustive %d",
				memoWorkloads[w].name, planG, planE)
		}
		if g, b := gr.res.ExecStats.IOs(), ex.res.ExecStats.IOs(); float64(g) > 1.5*float64(b) {
			t.Errorf("%s: plan quality %d/%d exceeds 1.5x", memoWorkloads[w].name, g, b)
		}
		if f := diverge(ex, gr, pinCount|pinSet); f != "" {
			t.Errorf("%s: %s diverges", memoWorkloads[w].name, f)
		}
	}
}

// diverge names the first pinned figure on which two runs differ and ignores
// every figure outside its pins.
func TestDivergeNamesPinnedField(t *testing.T) {
	ref := armRun{
		res:  &core.Result{ExecStats: extmem.Stats{Reads: 3}, Policy: map[string]int{"0:0.1": 1}},
		rows: 5, ordered: 7, set: 9,
		stats: extmem.Stats{Reads: 10, Writes: 4},
		xfer:  extmem.XferStats{Reads: 10, Writes: 4},
	}
	all := pinCount | pinOrdered | pinSet | pinExec | pinPolicy | pinStats | pinXfer
	if f := diverge(ref, ref, all); f != "" {
		t.Fatalf("identical runs diverge on %s", f)
	}
	for _, c := range []struct {
		pin    pin
		name   string
		mutate func(r *armRun)
	}{
		{pinCount, "row count", func(r *armRun) { r.rows++ }},
		{pinOrdered, "ordered rows fingerprint", func(r *armRun) { r.ordered++ }},
		{pinSet, "order-free rows fingerprint", func(r *armRun) { r.set++ }},
		{pinExec, "exec stats", func(r *armRun) {
			res := *r.res
			res.ExecStats.Writes++
			r.res = &res
		}},
		{pinPolicy, "policy", func(r *armRun) {
			res := *r.res
			res.Policy = map[string]int{"0:0.1": 0}
			r.res = &res
		}},
		{pinStats, "full stats", func(r *armRun) { r.stats.MemHiWater++ }},
		{pinXfer, "transfers", func(r *armRun) { r.xfer.ReplayedReads++ }},
	} {
		got := ref
		c.mutate(&got)
		if f := diverge(ref, got, all); !strings.HasPrefix(f, c.name) {
			t.Errorf("%s differs but diverge named %q", c.name, f)
		}
		if f := diverge(ref, got, all&^c.pin); f != "" {
			t.Errorf("%s is not pinned but diverge named %q", c.name, f)
		}
	}
}

// TestFileEnginesClosed runs every experiment that builds its disks through
// machines, and the verification sweep, on the file backend with the backing
// files pinned to one directory: each engine removes its file when closed,
// so an engine left open shows as a file left behind. The directory is read
// right after each run, before a garbage collection can let an abandoned
// engine's finalizer close it. Where /proc/self/fd exists, the process's
// open descriptors must also be back at their count after the first
// experiment (which lets the runtime open its poller first), so an engine
// whose file was removed but whose descriptor stayed open shows too. The
// arm-based experiments are left out: runArm closes its own engine on every
// path, and their fault sweeps are most of the registry's run time.
func TestFileEnginesClosed(t *testing.T) {
	armBased := map[string]bool{"E23": true, "E28": true}
	dir := t.TempDir()
	p := Params{M: 64, B: 8, Scale: 1, Seed: 42, Backend: "file", DataDir: dir}
	check := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range left {
			t.Errorf("%s left a backing file behind: %s", name, f.Name())
			os.Remove(filepath.Join(dir, f.Name()))
		}
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(fds)
	}
	baseline := 0
	for _, e := range All() {
		if !armBased[e.ID] {
			_, err := e.Run(p)
			check(e.ID, err)
			if baseline == 0 {
				baseline = openFDs()
			}
		}
	}
	_, err := VerifySweep(p, 2)
	check("verify sweep", err)
	if baseline < 0 {
		t.Log("no /proc/self/fd: descriptor count not checked")
	} else if n := openFDs(); n != baseline {
		t.Errorf("%d descriptors open after the sweep, %d after the first experiment", n, baseline)
	}
}

// TestNoMemoRunsWithoutMemo checks that Params.NoMemo switches the operator
// memo off for the whole run: the disk the harness builds carries none, and
// core.Run, which uses whatever memo the disk has, replays nothing. E23's
// pruned arm is the run under test; the same arm with the memo left on must
// replay, or the zero counts would show nothing.
func TestNoMemoRunsWithoutMemo(t *testing.T) {
	p := Params{M: 64, B: 8, Scale: 1, Seed: 42}
	noMemo := p
	noMemo.NoMemo = true
	for w, wl := range memoWorkloads {
		off, err := runArm(noMemo, w, arm{})
		if err != nil {
			t.Fatal(err)
		}
		if off.memo.Hits != 0 || off.xfer.ReplayedReads != 0 || off.xfer.ReplayedWrites != 0 {
			t.Errorf("%s under NoMemo: %d memo hits, %d/%d replayed transfers; want none",
				wl.name, off.memo.Hits, off.xfer.ReplayedReads, off.xfer.ReplayedWrites)
		}
		on, err := runArm(p, w, arm{})
		if err != nil {
			t.Fatal(err)
		}
		if on.memo.Hits == 0 {
			t.Errorf("%s with the memo on: no memo hits", wl.name)
		}
	}
}
