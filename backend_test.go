package acyclicjoin

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// backendRun evaluates q on the given backend and returns the Result plus
// the emitted rows in emission order (canonical form). The emission order is
// part of the cross-backend contract: the engine sits entirely above the
// storage seam, so the file engine must reproduce it exactly.
func backendRunRows(t *testing.T, q *Query, inst *Instance, opts Options) (*Result, []string) {
	t.Helper()
	var rows []string
	res, err := Run(q, inst, opts, func(row Row) {
		rows = append(rows, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("backend %q opts %+v: %v", opts.Backend, opts, err)
	}
	return res, rows
}

// checkTransferParity asserts the seam invariant the differential suite is
// built on: every charge in PlanningStats is a performed, a replayed or an
// unread transfer, on every backend. On the file backend the engine must
// additionally have observed exactly the performed side.
func checkTransferParity(t *testing.T, label string, res *Result) {
	t.Helper()
	x := res.Transfers
	if res.PlanningStats.Reads != x.TotalReads() || res.PlanningStats.Writes != x.TotalWrites() {
		t.Fatalf("%s: transfer parity broken: planning stats %+v vs transfers %+v", label, res.PlanningStats, x)
	}
	switch res.Backend {
	case "sim":
		if res.Device != (DeviceStats{}) {
			t.Fatalf("%s: sim backend reported device telemetry: %+v", label, res.Device)
		}
	case "file":
		if res.Device.BilledReads != x.Reads || res.Device.BilledWrites != x.Writes {
			t.Fatalf("%s: engine observed %d/%d billed transfers, ledger performed %d/%d",
				label, res.Device.BilledReads, res.Device.BilledWrites, x.Reads, x.Writes)
		}
		if res.Device.ReadCalls+res.Device.BackfillServes != res.Device.BilledReads {
			t.Fatalf("%s: billed reads are not one pread each (or a backfill): %+v", label, res.Device)
		}
	default:
		t.Fatalf("%s: unexpected backend %q", label, res.Backend)
	}
}

// TestDifferentialBackendsPublicAPI runs random acyclic queries through the
// public API on the counting simulator and the os.File engine, across memo
// and pruning modes. The rows (in emission order), Count, Stats,
// PlanningStats, the transfer ledger, and the plan must be bit-identical
// across backends in every configuration.
func TestDifferentialBackendsPublicAPI(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"seq-noprune", Options{NoPrune: true}},
		{"seq-nomemo", Options{Memo: MemoOff}},
		{"seq-noprune-nomemo", Options{NoPrune: true, Memo: MemoOff}},
	}
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%5 == 0)
		want := oracleRows(t, q, inst)
		for _, cfg := range configs {
			simOpts := cfg.opts
			simOpts.Memory, simOpts.Block, simOpts.Backend = 64, 8, "sim"
			fileOpts := simOpts
			fileOpts.Backend = "file"
			label := fmt.Sprintf("trial %d %s", trial, cfg.name)
			simRes, simRows := backendRunRows(t, q, inst, simOpts)
			fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
			checkTransferParity(t, label+" (sim)", simRes)
			checkTransferParity(t, label+" (file)", fileRes)
			if int64(len(want)) != simRes.Count {
				t.Fatalf("%s: sim Count = %d, oracle = %d", label, simRes.Count, len(want))
			}
			if len(simRows) != len(fileRows) {
				t.Fatalf("%s: emitted %d rows on sim, %d on file", label, len(simRows), len(fileRows))
			}
			for i := range simRows {
				if simRows[i] != fileRows[i] {
					t.Fatalf("%s: row %d diverges: sim %q, file %q", label, i, simRows[i], fileRows[i])
				}
			}
			if simRes.Count != fileRes.Count || simRes.Stats != fileRes.Stats ||
				simRes.Plan != fileRes.Plan || simRes.Branches != fileRes.Branches {
				t.Fatalf("%s: results diverge:\nsim  %+v\nfile %+v", label, simRes, fileRes)
			}
			if simRes.PlanningStats != fileRes.PlanningStats || simRes.Transfers != fileRes.Transfers {
				t.Fatalf("%s: planning accounting diverges:\nsim  planning %+v transfers %+v\nfile planning %+v transfers %+v",
					label, simRes.PlanningStats, simRes.Transfers, fileRes.PlanningStats, fileRes.Transfers)
			}
		}
	}
}

// TestFileBackendDataDirRetained runs a join with an explicit -datadir and
// checks the backing file lives there during the run's lifetime and is
// removed when the engine closes (RunContext closes it before returning).
func TestFileBackendDataDirRetained(t *testing.T) {
	dir := t.TempDir()
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, Options{Memory: 64, Block: 8, Backend: "file", DataDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "file" {
		t.Fatalf("Backend = %q, want file", res.Backend)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		var names []string
		for _, e := range left {
			names = append(names, filepath.Join(dir, e.Name()))
		}
		t.Fatalf("backing files leaked after Run: %v", names)
	}
}

// TestBackendEnvFallback proves the ACYCLICJOIN_BACKEND environment variable
// routes a default-options run onto the file engine — the hook the CI
// backend-file job uses to re-run the whole suite without code changes.
func TestBackendEnvFallback(t *testing.T) {
	t.Setenv("ACYCLICJOIN_BACKEND", "file")
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, Options{Memory: 64, Block: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "file" {
		t.Fatalf("Backend = %q, want file via ACYCLICJOIN_BACKEND", res.Backend)
	}
	checkTransferParity(t, "env fallback", res)
}

// TestBackendUnknownRejected pins the error for a bad Options.Backend.
func TestBackendUnknownRejected(t *testing.T) {
	q, inst := buildTinyQuery(t)
	_, err := Run(q, inst, Options{Backend: "nvme"}, nil)
	if err == nil || err.Error() != `acyclicjoin: unknown backend "nvme" (want "sim" or "file")` {
		t.Fatalf("err = %v", err)
	}
}

func buildTinyQuery(t *testing.T) (*Query, *Instance) {
	t.Helper()
	q, err := NewQuery().
		Relation("R", "a", "b").
		Relation("S", "b", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := q.NewInstance()
	for i := 0; i < 40; i++ {
		inst.MustAdd("R", i%8, i%5)
		inst.MustAdd("S", i%5, i%7)
	}
	return q, inst
}

// TestPlanningBillsUnreadScans checks the third side of the seam ledger on
// multi-branch exhaustive runs: the dry branches bill their base-case scans
// as unread reads, which no device sees. On sim and file, memo on and off,
// PlanningStats.Reads is performed + replayed + unread reads, and the unread
// share is the same in all four runs. A run without dry branches bills none.
func TestPlanningBillsUnreadScans(t *testing.T) {
	rows := make([][2]int, 0, 48)
	for i := range 48 {
		rows = append(rows, [2]int{i % 6, i % 11})
	}
	for _, star := range []bool{true, false} {
		q, inst, _ := deepQuery(t, star, 5, rows)
		unread := int64(-1)
		for _, backend := range []string{"sim", "file"} {
			for _, memo := range []MemoMode{MemoOn, MemoOff} {
				label := fmt.Sprintf("star=%v %s memo off=%v", star, backend, memo == MemoOff)
				res, err := Count(q, inst, Options{Memory: 64, Block: 8, Backend: backend, Memo: memo})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if star && res.Branches < 2 {
					t.Fatalf("%s: %d branches, want a multi-branch subject", label, res.Branches)
				}
				x := res.Transfers
				if res.PlanningStats.Reads != x.Reads+x.ReplayedReads+x.UnreadReads {
					t.Fatalf("%s: planning reads %d, transfers %+v", label, res.PlanningStats.Reads, x)
				}
				if unread < 0 {
					unread = x.UnreadReads
				}
				if x.UnreadReads != unread || unread == 0 {
					t.Fatalf("%s: %d unread reads, want %d and more than 0", label, x.UnreadReads, unread)
				}
				if backend == "file" && res.Device.ReadCalls+res.Device.BackfillServes != x.Reads {
					t.Fatalf("%s: %d preads and %d backfills for %d performed reads",
						label, res.Device.ReadCalls, res.Device.BackfillServes, x.Reads)
				}
			}
		}
		res, err := Count(q, inst, Options{Memory: 64, Block: 8, Strategy: StrategyFirst})
		if err != nil {
			t.Fatal(err)
		}
		if res.Transfers.UnreadReads != 0 {
			t.Fatalf("star=%v: StrategyFirst billed %d unread reads", star, res.Transfers.UnreadReads)
		}
	}
}
