package acyclicjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// runRows evaluates q with the given options and returns the Result plus the
// emitted rows in emission order (canonical form).
func runRows(t *testing.T, q *Query, inst *Instance, opts Options) (*Result, []string) {
	t.Helper()
	var rows []string
	res, err := Run(q, inst, opts, func(row Row) {
		rows = append(rows, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("shards=%d backend=%q: %v", opts.Shards, opts.Backend, err)
	}
	return res, rows
}

// sameRun fails the test unless got is the same run as want: equal Count,
// Stats, PlanningStats, Transfers, Plan and Branches, and the same rows in the
// same order.
func sameRun(t *testing.T, label string, want, got *Result, wantRows, gotRows []string) {
	t.Helper()
	if got.Count != want.Count || got.Stats != want.Stats ||
		got.PlanningStats != want.PlanningStats || got.Transfers != want.Transfers ||
		got.Plan != want.Plan || got.Branches != want.Branches {
		t.Fatalf("%s: result diverges from the default run:\n got  count=%d stats=%+v planning=%+v transfers=%+v plan=%q branches=%d\n want count=%d stats=%+v planning=%+v transfers=%+v plan=%q branches=%d",
			label, got.Count, got.Stats, got.PlanningStats, got.Transfers, got.Plan, got.Branches,
			want.Count, want.Stats, want.PlanningStats, want.Transfers, want.Plan, want.Branches)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%s: emitted %d rows, default run %d", label, len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("%s: row %d = %q, default run %q", label, i, gotRows[i], wantRows[i])
		}
	}
}

// TestShardDifferentialPublicAPI pins the contract of the deprecated
// Options.Shards field: it is ignored. Random acyclic queries run through the
// public API at several shard counts, on both backends and both memo modes,
// must match the GenericJoin oracle and be bit-identical — counters, plan and
// row order — to the same run with Shards left at zero.
func TestShardDifferentialPublicAPI(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%4 == 0)
		want := oracleRows(t, q, inst)
		for _, backend := range []string{"sim", "file"} {
			for _, memo := range []MemoMode{MemoOn, MemoOff} {
				base := Options{Memory: 64, Block: 8, Backend: backend, Memo: memo}
				baseRes, baseRows := runRows(t, q, inst, base)
				sorted := append([]string(nil), baseRows...)
				sort.Strings(sorted)
				if baseRes.Count != int64(len(want)) || len(sorted) != len(want) {
					t.Fatalf("trial %d backend=%s memo=%v: Count = %d, rows = %d, oracle = %d (relations %v)",
						trial, backend, memo, baseRes.Count, len(sorted), len(want), q.Relations())
				}
				for i := range want {
					if sorted[i] != want[i] {
						t.Fatalf("trial %d backend=%s memo=%v: row %d = %q, oracle %q",
							trial, backend, memo, i, sorted[i], want[i])
					}
				}
				for _, shards := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("trial %d backend=%s memo=%v shards=%d", trial, backend, memo, shards)
					opts := base
					opts.Shards = shards
					res, rows := runRows(t, q, inst, opts)
					sameRun(t, label, baseRes, res, baseRows, rows)
				}
			}
		}
	}
}

// TestShardExplainReport pins the user-facing surface of a run that still
// sets the deprecated Options.Shards: the plan line and the whole
// ExplainString report are those of the default run.
func TestShardExplainReport(t *testing.T) {
	q, inst := buildTinyQuery(t)
	base, err := Run(q, inst, Options{Memory: 64, Block: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, inst, Options{Memory: 64, Block: 8, Shards: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != base.Plan {
		t.Errorf("Plan = %q, want the default run's %q", res.Plan, base.Plan)
	}
	if got, want := res.ExplainString(), base.ExplainString(); got != want {
		t.Errorf("ExplainString with Shards=4 differs from the default run:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestShardEnvFallback proves the library no longer reads
// $ACYCLICJOIN_SHARDS: a stale value, even an unparseable one, neither fails
// a run nor changes its result.
func TestShardEnvFallback(t *testing.T) {
	q, inst := buildTinyQuery(t)
	base, baseRows := runRows(t, q, inst, Options{Memory: 64, Block: 8})
	for _, v := range []string{"3", "banana"} {
		t.Setenv("ACYCLICJOIN_SHARDS", v)
		res, rows := runRows(t, q, inst, Options{Memory: 64, Block: 8})
		sameRun(t, "ACYCLICJOIN_SHARDS="+v, base, res, baseRows, rows)
	}
}
