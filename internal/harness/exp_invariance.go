package harness

import (
	"errors"
	"fmt"
	"strings"

	"acyclicjoin/internal/extmem"
)

func init() {
	Register(&Experiment{
		ID:       "E23",
		Artifact: "knob invariance: operator memo, pruning, storage backend, fault injection (implementation artifact)",
		Title:    "Knob invariance: every memo, pruning, backend and fault arm matches its reference arm or fails typed",
		Run:      func(p Params) (*Table, error) { return runInvariance(p, armGroups) },
	})
}

// armCase is one arm under test of an armGroup.
type armCase struct {
	name string
	// arm builds the arm from Params and the reference run (the typed-abort
	// arms of the model layer fire halfway through the reference's I/O).
	arm func(p Params, ref armRun) arm
	// fails, when set, says whether the run ended in the arm's typed abort;
	// the arm must then abort. Otherwise it must succeed and reproduce the
	// reference on the group's pins.
	fails func(got armRun, err error) bool
}

// armGroup is one block of rows of the knob-invariance table: one knob, its
// reference arm, the arms under test, the figures they must reproduce and
// what each row's ledger reports.
type armGroup struct {
	// id is the experiment the group was before the tables were merged; the
	// small-scale test runs each group as its own subtest under that name.
	id string
	// workloads: the group runs on memoWorkloads[:workloads].
	workloads int
	refName   string
	ref       arm
	arms      []armCase
	pins      pin // what a successful arm must reproduce
	// followsNoMemo arms run with the memo off under Params.NoMemo. The
	// other groups keep the memo on where their arms set it: they report
	// what it replays, or fault counts that follow the performed transfers.
	followsNoMemo bool
	// check, when set, verifies a successful arm's own ledger identities.
	check  func(got armRun) error
	ledger func(got, ref armRun) string
	note   string
}

// fixed is an armCase.arm that ignores Params and the reference.
func fixed(a arm) func(Params, armRun) arm { return func(Params, armRun) arm { return a } }

// isErr matches an arm that ended in an error wrapping target.
func isErr(target error) func(armRun, error) bool {
	return func(_ armRun, err error) bool { return errors.Is(err, target) }
}

// deviceArm runs on the file backend with a device-layer plan that replaces
// the ambient one: Params.Backend and DevFaultRate do not reach it.
func deviceArm(plan extmem.FaultPlan) arm {
	plan.Layer = extmem.LayerDevice
	return arm{backend: "file", emit: true, plan: &plan}
}

// deviceTransient is the device chaos arm at one transient rate, torn
// writes at half of it.
func deviceTransient(rate float64) armCase {
	return armCase{name: fmt.Sprintf("transient %.2f", rate), arm: func(p Params, _ armRun) arm {
		return deviceArm(extmem.FaultPlan{Seed: p.Seed + 211, Rate: rate, TornRate: rate / 2})
	}}
}

// halfway is the I/O number halfway through the reference run, where the
// model-layer abort arms fire.
func halfway(ref armRun) int64 { return ref.res.TotalStats.IOs()/2 + 1 }

// The memo arms run unpruned: full-stats bit-identity (reads/writes split
// included) across memo modes only holds unpruned, since a budget abort can
// land mid-operator on a different point of the read/write split under
// replay than under a real run (totals are clamped identically either way).
// The pruning group covers the pruned side.
var (
	memoOffArm = arm{noMemo: true, noPrune: true}
	memoOnArm  = arm{noPrune: true}
)

// armGroups is the knob-invariance table: DESIGN.md's arm table as data.
var armGroups = []armGroup{
	{
		id: "E23", workloads: 4, refName: "memo off", ref: memoOffArm,
		arms: []armCase{{name: "memo on", arm: fixed(memoOnArm)}},
		pins: pinCount | pinStats,
		ledger: func(got, _ armRun) string {
			return fmt.Sprintf("%d IOs, hits %d, misses %d, %d KB replayed",
				got.stats.IOs(), got.memo.Hits, got.memo.Misses, got.memo.BytesReplayed/1024)
		},
		note: "memo on vs memo off (both unpruned): identical = row count and every counter (reads, writes, hi-water); the memo only buys host time",
	},
	{
		id: "E25", workloads: 4, refName: "unpruned", ref: memoOnArm,
		arms: []armCase{{name: "pruned", arm: fixed(arm{})}},
		pins: pinCount | pinExec | pinPolicy, followsNoMemo: true,
		ledger: func(got, ref armRun) string {
			saved := 0.0
			if ref.stats.IOs() > 0 {
				saved = 100 * float64(ref.stats.IOs()-got.stats.IOs()) / float64(ref.stats.IOs())
			}
			return fmt.Sprintf("%d/%d branches pruned, exec %d IOs, planning %d of %d IOs (%.1f%% saved)",
				got.res.Prune.Pruned, got.res.Branches, got.res.ExecStats.IOs(), got.stats.IOs(), ref.stats.IOs(), saved)
		},
		note: "pruned vs unpruned: identical = rows, exec stats and winning policy; planning IOs count reduction + all dry runs + the winning re-run, and the saving understates at test scale, where branch costs cluster",
	},
	{
		id: "E26", workloads: 2, refName: "fault-free", ref: arm{emit: true},
		arms: []armCase{
			{name: "permanent", arm: func(_ Params, ref armRun) arm {
				return arm{emit: true, plan: &extmem.FaultPlan{PermanentAt: halfway(ref)}}
			}, fails: func(_ armRun, err error) bool {
				var fe *extmem.FaultError
				return errors.As(err, &fe)
			}},
			{name: "cancel", arm: func(_ Params, ref armRun) arm {
				return arm{emit: true, plan: &extmem.FaultPlan{CancelAt: halfway(ref)}}
			}, fails: isErr(extmem.ErrCancelled)},
		},
		ledger: func(got, _ armRun) string { return faultLedger(got.faults) },
		note:   "permanent and cancel fire halfway through the fault-free run's I/Os on the model layer and abort with typed errors (*FaultError, ErrCancelled) at that charge, never a panic",
	},
	{
		id: "E27", workloads: 4, refName: "sim", ref: arm{backend: "sim", emit: true},
		arms: []armCase{{name: "file", arm: fixed(arm{backend: "file", emit: true})}},
		pins: pinCount | pinOrdered | pinPolicy | pinExec | pinStats | pinXfer,
		check: func(got armRun) error {
			dev := got.dev
			if dev.BilledReads != got.xfer.Reads || dev.BilledWrites != got.xfer.Writes {
				return fmt.Errorf("engine observed %d/%d billed transfers, ledger performed %d/%d",
					dev.BilledReads, dev.BilledWrites, got.xfer.Reads, got.xfer.Writes)
			}
			if dev.ReadCalls+dev.BackfillServes != dev.BilledReads {
				return fmt.Errorf("billed reads are not one pread each (or a backfill): %+v", dev)
			}
			return nil
		},
		ledger: func(got, _ armRun) string {
			return fmt.Sprintf("xfer %d/%d, replayed %d/%d, unread %d, preads %d, pwrites %d",
				got.xfer.Reads, got.xfer.Writes, got.xfer.ReplayedReads, got.xfer.ReplayedWrites,
				got.xfer.UnreadReads, got.dev.ReadCalls, got.dev.WriteCalls)
		},
		note: "file vs sim: identical = rows and order, policy, exec stats, full stats and seam ledger; the engine bills exactly the performed transfers, each billed read one pread (or a backfill), each byte-verified against the in-memory image; unread reads (the dry branches' base-case scans) reach no device",
	},
	{
		id: "E30", workloads: 2, refName: "fault-free file", ref: deviceArm(extmem.FaultPlan{}),
		arms: []armCase{
			deviceTransient(0.02), deviceTransient(0.05), deviceTransient(0.2),
			// An 8 KiB arena cap that any workload outgrows; space
			// exhaustion is never retried.
			{name: "ENOSPC", arm: fixed(deviceArm(extmem.FaultPlan{NoSpaceAfter: 8 << 10})), fails: isErr(extmem.ErrNoSpace)},
			// Every syscall from #50 on fails, exhausting the bounded retry
			// budget into a typed permanent failure.
			{name: "dead device", arm: fixed(deviceArm(extmem.FaultPlan{PermanentAt: 50})), fails: func(got armRun, err error) bool {
				return errors.Is(err, extmem.ErrDevice) && got.faults.Permanent == 1
			}},
		},
		pins: pinCount | pinOrdered | pinExec | pinPolicy,
		check: func(got armRun) error {
			// Each transient burns its offset, so it is retried exactly once.
			if fs := got.faults; fs.Retries != fs.Transient || fs.RetryReads+fs.RetryWrites != fs.Transient {
				return fmt.Errorf("%d injected transients but %d retries (%d/%d)",
					fs.Transient, fs.Retries, fs.RetryReads, fs.RetryWrites)
			}
			return nil
		},
		ledger: func(got, _ armRun) string { return faultLedger(got.faults) },
		note:   "device arms inject under every pread/pwrite of the file engine (transient EIO, torn writes at half the rate), load writes, backfills and repair rewrites included; retries and torn-frame repairs are billed to the fault ledger, never the main stats; a torn frame is repaired only when a performed read next verifies it, so repairs can trail torn writes; ENOSPC and the dead device abort typed (ErrNoSpace, ErrDevice)",
	},
}

// verify checks a successful arm against the reference on the group's pins,
// then its own ledger identities.
func (g *armGroup) verify(ref, got armRun) error {
	if f := diverge(ref, got, g.pins); f != "" {
		return fmt.Errorf("%s diverged from the reference arm", f)
	}
	if g.check != nil {
		return g.check(got)
	}
	return nil
}

// faultLedger renders the nonzero parts of a fault ledger.
func faultLedger(fs extmem.FaultStats) string {
	var parts []string
	if fs.Transient > 0 {
		parts = append(parts, fmt.Sprintf("injected r/w %d/%d, retries %d, backoff %d IOs",
			fs.RetryReads, fs.RetryWrites, fs.Retries, fs.BackoffIOs))
	}
	if fs.Torn > 0 {
		parts = append(parts, fmt.Sprintf("torn/repaired %d/%d", fs.Torn, fs.Repairs))
	}
	if fs.NoSpace > 0 {
		parts = append(parts, fmt.Sprintf("%d ENOSPC", fs.NoSpace))
	}
	if fs.Permanent > 0 {
		parts = append(parts, fmt.Sprintf("%d permanent", fs.Permanent))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// runInvariance runs groups in order, one row per (workload, arm), and fails
// on the first arm that diverges from its reference or misses its typed
// abort. Runs are sequential, so every cell, the device syscall counters
// included, reproduces exactly. A run several groups share (the memo-off
// reference, the unpruned memo-on run) is made once.
func runInvariance(p Params, groups []armGroup) (*Table, error) {
	p = p.WithDefaults()
	noMemo := p.NoMemo
	p.NoMemo = false // each arm sets its own memo mode
	type runKey struct {
		w int
		a arm
	}
	runs := map[runKey]armRun{}
	run := func(w int, a arm) (armRun, error) {
		if r, ok := runs[runKey{w, a}]; ok {
			return r, nil
		}
		r, err := runArm(p, w, a)
		if err == nil {
			runs[runKey{w, a}] = r
		}
		return r, err
	}
	t := &Table{
		Title:  "E23: knob invariance (exhaustive strategy): each arm against its reference arm",
		Header: []string{"workload", "arm", "reference", "verdict", "ledger"},
	}
	for i := range groups {
		g := &groups[i]
		memo := func(a arm) arm {
			if g.followsNoMemo && noMemo {
				a.noMemo = true
			}
			return a
		}
		for w, wl := range memoWorkloads[:g.workloads] {
			ref, err := run(w, memo(g.ref))
			if err != nil {
				return nil, fmt.Errorf("E23 %s %s: %w", wl.name, g.refName, err)
			}
			for _, c := range g.arms {
				got, err := run(w, memo(c.arm(p, ref)))
				verdict := "identical"
				if c.fails != nil {
					if !c.fails(got, err) {
						return nil, fmt.Errorf("E23 %s %s: ended in %v (fault ledger %v), not its typed abort", wl.name, c.name, err, got.faults)
					}
					verdict = "typed error"
				} else {
					if err == nil {
						err = g.verify(ref, got)
					}
					if err != nil {
						return nil, fmt.Errorf("E23 %s %s: %w", wl.name, c.name, err)
					}
				}
				t.AddRow(wl.name, c.name, g.refName, verdict, g.ledger(got, ref))
			}
		}
		t.Notes = append(t.Notes, g.note)
	}
	return t, nil
}
