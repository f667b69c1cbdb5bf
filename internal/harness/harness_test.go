package harness

import (
	"fmt"
	"strings"
	"testing"

	"acyclicjoin/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
		"E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28",
		"E29", "E30"}
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
// test for the whole stack: algorithms, workloads, bounds.
func TestAllExperimentsSmallScale(t *testing.T) {
	p := Params{M: 64, B: 8, Scale: 1, Seed: 42}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(p)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if out := tab.Render(); len(out) == 0 {
				t.Fatalf("%s rendered empty", e.ID)
			}
		})
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
	if sweep, _, err = strategySweep(Params{Strategy: "exhaustive"}); err != nil || len(sweep) != 3 {
		t.Fatalf("exhaustive sweep = %+v, err %v", sweep, err)
	}
	if _, _, err = strategySweep(Params{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := VerifySweep(Params{Seed: 2, Strategy: "greedy"}, 4); err != nil {
		t.Fatal(err)
	}
}

// E28's acceptance thresholds, checked at test scale on every multi-branch
// memo workload: greedy planning I/Os at most 10% of the exhaustive dry-run
// sweep's, and a plan within 1.5x of the oracle's best branch. (Row equality
// is enforced inside runE28 itself — a mismatch is an error, not a cell.)
func TestE28Thresholds(t *testing.T) {
	p := Params{Seed: 1}.WithDefaults()
	for w := range memoWorkloads {
		gr, err := runGreedyArm(p, w, core.StrategyGreedy)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := runGreedyArm(p, w, core.StrategyExhaustive)
		if err != nil {
			t.Fatal(err)
		}
		if ex.res.Branches < 2 {
			t.Fatalf("%s: expected a multi-branch workload, oracle explored %d",
				memoWorkloads[w].name, ex.res.Branches)
		}
		planG, planE := planningIOs(gr.res), planningIOs(ex.res)
		if planG*10 > planE {
			t.Errorf("%s: greedy planning %d I/Os > 10%% of exhaustive %d",
				memoWorkloads[w].name, planG, planE)
		}
		if g, b := gr.res.ExecStats.IOs(), ex.res.ExecStats.IOs(); float64(g) > 1.5*float64(b) {
			t.Errorf("%s: plan quality %d/%d exceeds 1.5x", memoWorkloads[w].name, g, b)
		}
		if gr.rows != ex.rows || gr.fp != ex.fp {
			t.Errorf("%s: rows diverge: %d (fp %x) vs %d (fp %x)",
				memoWorkloads[w].name, gr.rows, gr.fp, ex.rows, ex.fp)
		}
	}
}
