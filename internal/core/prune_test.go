package core

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/workload"
)

// pruneSubjects are multi-branch workloads used by the pruning contract
// tests.
func pruneSubjects() []struct {
	name  string
	build builder
} {
	return []struct {
		name  string
		build builder
	}{
		{"line4-uniform", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
			rng := rand.New(rand.NewSource(12))
			return workload.LineUniform(d, rng, 4, 90, 9)
		}},
		{"line5-uniform", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
			rng := rand.New(rand.NewSource(7))
			return workload.LineUniform(d, rng, 5, 128, 32)
		}},
		{"star3-random", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
			rng := rand.New(rand.NewSource(14))
			g := hypergraph.StarQuery(3)
			return g, randCoreInstance(d, rng, g, 40, 6)
		}},
		{"dumbbell-random", func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
			rng := rand.New(rand.NewSource(16))
			g := hypergraph.Dumbbell(2, 4)
			return g, randCoreInstance(d, rng, g, 30, 5)
		}},
	}
}

// TestPruneBitIdenticalPinnedFields is the pruning contract: branch-and-
// bound pruning changes neither the emitted rows and their order, nor
// ExecStats, nor the winning Policy, compared to the unpruned reference.
// (TotalStats and the Prune split legitimately differ: that is the point of
// pruning.)
func TestPruneBitIdenticalPinnedFields(t *testing.T) {
	for _, tc := range pruneSubjects() {
		t.Run(tc.name, func(t *testing.T) {
			ref, refRows, _, err := engineRunOpts(tc.build, Options{Strategy: StrategyExhaustive, NoPrune: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Branches < 2 {
				t.Skipf("single-branch subject (%d)", ref.Branches)
			}
			got, rows, _, err := engineRunOpts(tc.build, Options{Strategy: StrategyExhaustive})
			if err != nil {
				t.Fatal(err)
			}
			if got.Emitted != ref.Emitted {
				t.Errorf("pruned Emitted = %d, want %d", got.Emitted, ref.Emitted)
			}
			if got.ExecStats != ref.ExecStats {
				t.Errorf("pruned ExecStats = %+v, want %+v", got.ExecStats, ref.ExecStats)
			}
			if !reflect.DeepEqual(got.Policy, ref.Policy) {
				t.Errorf("pruned Policy = %v, want %v", got.Policy, ref.Policy)
			}
			if !reflect.DeepEqual(rows, refRows) {
				t.Errorf("pruned emitted rows diverge (%d vs %d, or order)", len(rows), len(refRows))
			}
			if got.ClampedChoices != 0 {
				t.Errorf("ClampedChoices = %d, want 0", got.ClampedChoices)
			}
			if got.Prune.Started != got.Prune.Pruned+got.Prune.Completed {
				t.Errorf("Prune split inconsistent: %+v", got.Prune)
			}
			if got.Prune.Completed < 1 {
				t.Errorf("no branch completed: %+v", got.Prune)
			}
			if got.TotalStats.IOs() > ref.TotalStats.IOs() {
				t.Errorf("pruned TotalStats %d exceeds unpruned %d", got.TotalStats.IOs(), ref.TotalStats.IOs())
			}
		})
	}
}

// Sequential pruned runs are fully deterministic: same inputs, same Result
// down to the Prune split and TotalStats, same rows, same final disk state.
func TestPruneSequentialDeterministic(t *testing.T) {
	for _, tc := range pruneSubjects() {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Strategy: StrategyExhaustive}
			r1, rows1, d1, err := engineRunOpts(tc.build, opts)
			if err != nil {
				t.Fatal(err)
			}
			r2, rows2, d2, err := engineRunOpts(tc.build, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("Result not deterministic: %+v vs %+v", r1, r2)
			}
			if !reflect.DeepEqual(rows1, rows2) {
				t.Errorf("rows not deterministic")
			}
			if d1 != d2 {
				t.Errorf("disk stats not deterministic: %+v vs %+v", d1, d2)
			}
		})
	}
}

// On a branch-heavy workload the bound must actually bite: some branches
// pruned, with a strictly cheaper round-robin total than the unpruned run.
func TestPruneTelemetryBites(t *testing.T) {
	unpruned, _, _ := runMemoL5(t, true, Options{Strategy: StrategyExhaustive, NoPrune: true})
	pruned, _, _ := runMemoL5(t, true, Options{Strategy: StrategyExhaustive})
	if unpruned.Prune.Pruned != 0 {
		t.Errorf("NoPrune run pruned %d branches", unpruned.Prune.Pruned)
	}
	if unpruned.Prune.Started != unpruned.Branches || unpruned.Prune.Completed != unpruned.Branches {
		t.Errorf("NoPrune telemetry inconsistent: %+v vs %d branches", unpruned.Prune, unpruned.Branches)
	}
	if pruned.Prune.Pruned == 0 {
		t.Fatalf("no branches pruned on a %d-branch subject: %+v", pruned.Branches, pruned.Prune)
	}
	if pruned.Prune.ChargedBeforeAbort <= 0 {
		t.Errorf("ChargedBeforeAbort = %d, want > 0", pruned.Prune.ChargedBeforeAbort)
	}
	if pruned.TotalStats.IOs() >= unpruned.TotalStats.IOs() {
		t.Errorf("pruned total %d not below unpruned total %d",
			pruned.TotalStats.IOs(), unpruned.TotalStats.IOs())
	}
	// Each pruned branch was aborted exactly at the incumbent bound, which is
	// at most the winning cost, so the saved total is bounded below by what
	// the completed branches alone cost.
	t.Logf("pruned %d/%d branches, planning total %d vs %d unpruned",
		pruned.Prune.Pruned, pruned.Prune.Started,
		pruned.TotalStats.IOs(), unpruned.TotalStats.IOs())
}

// Under pruning the memo changes where inside an operator an abort lands on
// the read/write split (replay charges per-segment), but the budget clamp
// pins the aborted branch's TOTAL at exactly the watermark. So across memo
// modes a sequential pruned run keeps: rows, ExecStats, Policy, Branches,
// the Prune split, and TotalStats at IOs() granularity.
func TestPrunedMemoInvariants(t *testing.T) {
	on, onRows, _ := runMemoL5(t, true, Options{Strategy: StrategyExhaustive})
	off, offRows, _ := runMemoL5(t, false, Options{Strategy: StrategyExhaustive})
	if !reflect.DeepEqual(onRows, offRows) {
		t.Errorf("emitted rows diverge across memo modes (%d vs %d)", len(onRows), len(offRows))
	}
	if on.Emitted != off.Emitted {
		t.Errorf("Emitted: memo-on %d, memo-off %d", on.Emitted, off.Emitted)
	}
	if on.ExecStats != off.ExecStats {
		t.Errorf("ExecStats: memo-on %+v, memo-off %+v", on.ExecStats, off.ExecStats)
	}
	if !reflect.DeepEqual(on.Policy, off.Policy) {
		t.Errorf("Policy: memo-on %v, memo-off %v", on.Policy, off.Policy)
	}
	if on.Branches != off.Branches {
		t.Errorf("Branches: memo-on %d, memo-off %d", on.Branches, off.Branches)
	}
	if on.Prune != off.Prune {
		t.Errorf("Prune: memo-on %+v, memo-off %+v", on.Prune, off.Prune)
	}
	if on.TotalStats.IOs() != off.TotalStats.IOs() {
		t.Errorf("TotalStats.IOs(): memo-on %d, memo-off %d",
			on.TotalStats.IOs(), off.TotalStats.IOs())
	}
}
