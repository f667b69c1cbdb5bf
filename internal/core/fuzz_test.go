package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"acyclicjoin/internal/count"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// fuzzInstance decodes the fuzz inputs shared by this file's oracles into one
// of four acyclic query shapes (line, star, lollipop, dumbbell) and a builder
// of a small random instance over it, seeded by all four inputs. The
// checked-in corpora depend on this decoding: change it and they no longer
// reach the same instances.
func fuzzInstance(shape, size, rows, dom uint8) (*hypergraph.Graph, builder) {
	var g *hypergraph.Graph
	switch shape % 4 {
	case 0:
		g = hypergraph.Line(2 + int(size)%4)
	case 1:
		g = hypergraph.StarQuery(2 + int(size)%3)
	case 2:
		g = hypergraph.Lollipop(2 + int(size)%2)
	case 3:
		g = hypergraph.Dumbbell(2, 4+int(size)%2)
	}
	seed := int64(shape)<<24 | int64(size)<<16 | int64(rows)<<8 | int64(dom)
	return g, func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance) {
		return g, randCoreInstance(d, rand.New(rand.NewSource(seed)), g, 5+int(rows)%28, 2+int(dom)%3)
	}
}

// samePinned fails t unless got reproduces ref's pinned fields: the emitted
// rows in emission order, Emitted, ExecStats and the winning Policy.
func samePinned(t *testing.T, arm string, ref *Result, refRows []string, got *Result, gotRows []string) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(gotRows, refRows):
		t.Fatalf("%s rows diverge: %d vs %d", arm, len(gotRows), len(refRows))
	case got.Emitted != ref.Emitted || got.ExecStats != ref.ExecStats:
		t.Fatalf("%s exec diverges: emitted %d/%d stats %+v/%+v",
			arm, got.Emitted, ref.Emitted, got.ExecStats, ref.ExecStats)
	case !reflect.DeepEqual(got.Policy, ref.Policy):
		t.Fatalf("%s policy diverges: %v vs %v", arm, got.Policy, ref.Policy)
	}
}

// FuzzPruneOracle is the differential oracle for branch-and-bound pruning:
// a fuzz-chosen acyclic query and instance run under the exhaustive strategy
// with pruning on must reproduce the unpruned run's pinned fields exactly —
// the emitted rows in emission order, the winning branch's ExecStats, and
// the winning Policy. Prune telemetry must stay internally consistent and
// the defensive chooser clamp must never fire. TotalStats and the Prune
// split are deliberately not compared: aborting dry runs changes what the
// planning phase charges (that is the point).
func FuzzPruneOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(1))
	f.Add(uint8(1), uint8(2), uint8(25), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, shape, size, rows, dom uint8) {
		_, build := fuzzInstance(shape, size, rows, dom)
		ref, refRows, _, refErr := engineRunOpts(build,
			Options{Strategy: StrategyExhaustive, NoPrune: true})
		pr, prRows, _, prErr := engineRunOpts(build, Options{Strategy: StrategyExhaustive})
		if (refErr == nil) != (prErr == nil) {
			t.Fatalf("errors diverge: unpruned %v, pruned %v", refErr, prErr)
		}
		if refErr != nil {
			if refErr.Error() != prErr.Error() {
				t.Fatalf("error text diverges: %q vs %q", refErr, prErr)
			}
			return
		}
		samePinned(t, "pruned arm", ref, refRows, pr, prRows)
		if pr.ClampedChoices != 0 || ref.ClampedChoices != 0 {
			t.Fatalf("chooser clamp fired: pruned %d, unpruned %d", pr.ClampedChoices, ref.ClampedChoices)
		}
		if pr.Prune.Started != pr.Prune.Pruned+pr.Prune.Completed || pr.Prune.Completed < 1 {
			t.Fatalf("inconsistent prune telemetry: %+v", pr.Prune)
		}
		if ref.Prune.Pruned != 0 {
			t.Fatalf("NoPrune arm pruned %d branches", ref.Prune.Pruned)
		}
	})
}

// FuzzCountOracle is the differential oracle for count-only runs: a
// fuzz-chosen acyclic query and instance, run with a nil emit under a
// fuzz-chosen strategy, heavy split on or off, reduced or unreduced input and
// memory size, must count exactly the results the emitting run delivers and
// the enumeration oracle (internal/count) finds, and must leave every other
// figure identical to the emitting run: ExecStats, TotalStats, Policy, Prune,
// Branches and the disk's final Stats. Counting skips only enumeration, which
// touches no disk. On a line of three or more relations the line dispatcher
// (RunLine) is held to the same: the oracle's count either way, and an
// identical Result and final disk Stats.
func FuzzCountOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(25), uint8(2), uint8(0x13))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(0), uint8(0x2a))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1), uint8(0x07))
	f.Add(uint8(0), uint8(1), uint8(31), uint8(0), uint8(0x1c))
	f.Fuzz(func(t *testing.T, shape, size, rows, dom, bits uint8) {
		g, build := fuzzInstance(shape, size, rows, dom)
		opts := Options{
			Strategy:          Strategy(bits % 4),
			DisableHeavySplit: bits&4 != 0,
			AssumeReduced:     bits&8 != 0,
		}
		// Small memories make the few-valued columns heavy.
		cfg := extmem.Config{M: []int{6, 12, 64}[int(bits>>4)%3], B: 2}
		raw := func(d *extmem.Disk) relation.Instance {
			_, in := build(d)
			return in
		}
		load := func(d *extmem.Disk) relation.Instance {
			in := raw(d)
			if opts.AssumeReduced {
				red, err := reducer.FullReduce(g, in)
				if err != nil {
					t.Fatalf("reduce: %v", err)
				}
				in = red
			}
			return in
		}
		run := func(emit Emit) (*Result, extmem.Stats, error) {
			d := extmem.NewDisk(cfg)
			in := load(d)
			goroutines := runtime.NumGoroutine()
			r, err := Run(g, in, emit, opts)
			assertNoLeaks(goroutines, fmt.Sprintf("opts=%+v err=%v", opts, err))
			return r, d.Stats(), err
		}
		var emitted int64
		ref, refStats, refErr := run(func(tuple.Assignment) { emitted++ })
		cnt, cntStats, cntErr := run(nil)
		if (refErr == nil) != (cntErr == nil) {
			t.Fatalf("errors diverge: emitting %v, count-only %v", refErr, cntErr)
		}
		if refErr != nil {
			if refErr.Error() != cntErr.Error() {
				t.Fatalf("error text diverges: %q vs %q", refErr, cntErr)
			}
			return
		}
		want, err := count.FullJoinSize(g, raw(extmem.NewDisk(cfg)))
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if ref.Emitted != emitted || emitted != want || cnt.Emitted != want {
			t.Fatalf("counts diverge: count-only %d, emitting %d (delivered %d), oracle %d",
				cnt.Emitted, ref.Emitted, emitted, want)
		}
		if cnt.ExecStats != ref.ExecStats || cnt.TotalStats != ref.TotalStats || cntStats != refStats {
			t.Fatalf("stats diverge: exec %+v/%+v total %+v/%+v disk %+v/%+v",
				cnt.ExecStats, ref.ExecStats, cnt.TotalStats, ref.TotalStats, cntStats, refStats)
		}
		if !reflect.DeepEqual(cnt.Policy, ref.Policy) || cnt.Prune != ref.Prune || cnt.Branches != ref.Branches {
			t.Fatalf("plan diverges: policy %v/%v prune %+v/%+v branches %d/%d",
				cnt.Policy, ref.Policy, cnt.Prune, ref.Prune, cnt.Branches, ref.Branches)
		}
		if _, ok := g.AsLine(); !ok || g.NumEdges() < 3 {
			return
		}
		// The line dispatcher counts on the same executor.
		runLine := func(emit Emit) (*Result, extmem.Stats) {
			d := extmem.NewDisk(cfg)
			r, err := RunLine(g, load(d), emit, opts)
			if err != nil {
				t.Fatalf("RunLine: %v", err)
			}
			return r, d.Stats()
		}
		emitted = 0
		lref, lrefStats := runLine(func(tuple.Assignment) { emitted++ })
		lcnt, lcntStats := runLine(nil)
		if lref.Emitted != emitted || emitted != want || lcnt.Emitted != want {
			t.Fatalf("line counts diverge: count-only %d, emitting %d (delivered %d), oracle %d",
				lcnt.Emitted, lref.Emitted, emitted, want)
		}
		if lcnt.ExecStats != lref.ExecStats || lcntStats != lrefStats || !reflect.DeepEqual(lcnt, lref) {
			t.Fatalf("line runs diverge: exec %+v/%+v disk %+v/%+v", lcnt.ExecStats, lref.ExecStats, lcntStats, lrefStats)
		}
	})
}

// FuzzFaultOracle is the differential oracle for the failure model: a
// fuzz-chosen acyclic query, instance, and memo mode run under fuzz-chosen
// fault schedules. A device arm runs the inputs on the file engine under a
// device-layer plan (transient faults at the fuzz-chosen rate, torn writes
// at half of it): the engine absorbs every fault below the seam, so the run
// must match the fault-free file run and the sim reference exactly. A
// model-layer cancellation must leave a consistent partial result (see
// cancelArm), and a fuzz-chosen permanent fault must always fail typed.
// Goroutine leak checks run inside the engine helpers on every arm.
func FuzzFaultOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(1), uint8(10), uint8(0), uint8(60))
	f.Add(uint8(1), uint8(2), uint8(25), uint8(2), uint8(40), uint8(1), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(0), uint8(120), uint8(0), uint8(33))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1), uint8(200), uint8(1), uint8(90))
	f.Fuzz(func(t *testing.T, shape, size, rows, dom, rate, memoOff, permAt uint8) {
		_, build := fuzzInstance(shape, size, rows, dom)
		opts := Options{Strategy: StrategyExhaustive}
		if memoOff%2 == 0 {
			build = memoed(build)
		}
		ref, refRows, refStats, refErr := engineRunOpts(build, opts)
		if refErr != nil {
			t.Skipf("fault-free run failed: %v", refErr)
		}

		deviceArm(t, build, opts, ref, refRows, refStats, int64(rate)+1, float64(rate%100)/200) // rate 0 .. 0.495
		cancelArm(t, "cancel arm", build, int64(rate%16), ref, refRows, refStats,
			func(plan *extmem.FaultPlan) (*Result, []string, extmem.Stats, error) {
				return engineRunFaults(build, opts, plan)
			})

		// Permanent arm: a fault the schedule guarantees to hit must always
		// return a typed error (permAt 0 disables the trigger; skip).
		if permAt > 0 {
			pplan := &extmem.FaultPlan{PermanentAt: int64(permAt)}
			_, _, _, perr := engineRunFaults(build, opts, pplan)
			var fe *extmem.FaultError
			if perr == nil {
				// Legitimate when the whole run charges fewer I/Os than the
				// trigger index.
				return
			}
			if !errors.As(perr, &fe) {
				t.Fatalf("permanent arm failed untyped: %v", perr)
			}
		}
	})
}

// cancelArm runs build through run under a model-layer CancelAt plan, armed
// after the load, and checks the partial result against the fault-free run
// ref. For k below 8 the trigger lies k I/Os before the end of ref's run,
// where a small instance emits its rows (the emitting re-run loads what it
// joins, then emits from memory); for k from 8 to 15 it lies (k-7)/9 of the
// run's I/O before the end, mostly in a dry run. A run that
// reaches the trigger must abort with ErrCancelled, having applied every
// charge before the first one that starts at or past I/O number CancelAt and
// none after (a multi-block charge can carry the count past the trigger, so
// the abort may come after more than CancelAt-1 I/Os, never fewer, and
// never at ref's end), and having emitted a prefix of ref's rows in ref's
// order. A trigger at or before the first charge must fire; one past the
// start of the last charge cannot, and the run must then match ref on its
// pinned fields.
func cancelArm(t *testing.T, name string, build builder, k int64, ref *Result, refRows []string, refStats extmem.Stats,
	run func(*extmem.FaultPlan) (*Result, []string, extmem.Stats, error)) {
	t.Helper()
	loaded := extmem.NewDisk(extmem.Config{M: 64, B: 4})
	build(loaded)
	load := loaded.Stats().IOs()
	if refStats.IOs() == load {
		return // the run charges nothing: there is nothing to cancel
	}
	back := k
	if k >= 8 {
		back = (refStats.IOs() - load) * (k - 7) / 9
	}
	cancelAt := max(refStats.IOs()-back, 1)
	got, rows, stats, err := run(&extmem.FaultPlan{CancelAt: cancelAt})
	if err == nil {
		if cancelAt <= load+1 {
			t.Fatalf("%s: trigger %d at the first charge after a %d-I/O load never fired", name, cancelAt, load)
		}
		samePinned(t, name, ref, refRows, got, rows)
		return
	}
	if !errors.Is(err, extmem.ErrCancelled) {
		t.Fatalf("%s: trigger %d of %d I/Os returned %v, want ErrCancelled", name, cancelAt, refStats.IOs(), err)
	}
	if n := stats.IOs(); n < max(load, cancelAt-1) || n >= refStats.IOs() {
		t.Fatalf("%s: cancelled after %d I/Os, want from %d to %d", name, n, max(load, cancelAt-1), refStats.IOs()-1)
	}
	if len(rows) > len(refRows) || !slices.Equal(rows, refRows[:len(rows)]) {
		t.Fatalf("%s: the %d rows emitted before the cancellation are not a prefix of the reference's %d", name, len(rows), len(refRows))
	}
}

// deviceArm is FuzzFaultOracle's device arm: a fault-free file run must
// reproduce the sim reference, and the same run under a device-layer plan
// must reproduce the fault-free file run, on rows in emission order,
// ExecStats, Policy, the final disk Stats, and the Transfers ledger.
func deviceArm(t *testing.T, build builder, opts Options, ref *Result, refRows []string, refStats extmem.Stats, seed int64, rate float64) {
	t.Helper()
	file, fileRows, fileStats, fileXfer, err := engineRunBackend(build, opts)
	if err != nil {
		t.Fatalf("fault-free file run failed where sim succeeded: %v", err)
	}
	plan := &extmem.FaultPlan{Seed: seed, Layer: extmem.LayerDevice, Rate: rate, TornRate: rate / 2}
	dev, devRows, devStats, devXfer, err := engineRunBackendFaults(build, opts, plan)
	if err != nil {
		t.Fatalf("device arm failed; every device transient must be absorbed: %v", err)
	}
	for _, arm := range []struct {
		name  string
		r     *Result
		rows  []string
		stats extmem.Stats
	}{{"file", file, fileRows, fileStats}, {"device", dev, devRows, devStats}} {
		samePinned(t, arm.name+" arm", ref, refRows, arm.r, arm.rows)
		if arm.stats != refStats {
			t.Fatalf("%s arm disk stats diverge: %+v vs %+v", arm.name, arm.stats, refStats)
		}
	}
	if devXfer != fileXfer {
		t.Fatalf("device arm transfer ledger diverges: %+v vs %+v", devXfer, fileXfer)
	}
}

// engineRunBackend is engineRunOpts on the os.File-backed storage engine:
// the disk mirrors every performed transfer onto a real (anonymous,
// unlinked) backing file, one syscall each, byte-verifying each billed
// read against the in-memory image. Beyond the usual leak checks it asserts
// the seam parity invariant — charged Stats equal performed, replayed and
// unread transfers — and that the engine observed exactly the performed side.
// It also returns the run's seam ledger.
func engineRunBackend(b builder, opts Options) (*Result, []string, extmem.Stats, extmem.XferStats, error) {
	return engineRunBackendFaults(b, opts, nil)
}

// engineRunBackendFaults is engineRunBackend with a fault plan. A model-layer
// plan is attached to the disk after the instance is loaded, mirroring
// engineRunFaults; a device-layer plan is armed on the engine right after
// Open, so the load's writes are faulted too. Injected faults must deliver
// deterministically through the file engine's device path, and recovery must
// leave the seam ledger and the engine's billed counters in exact parity.
func engineRunBackendFaults(b builder, opts Options, plan *extmem.FaultPlan) (*Result, []string, extmem.Stats, extmem.XferStats, error) {
	cfg := extmem.Config{M: 64, B: 4}
	eng, err := diskfile.Open("", cfg)
	if err != nil {
		panic(fmt.Sprintf("open diskfile engine: %v", err))
	}
	defer eng.Close()
	eng.SetFaultPlan(plan)
	d := extmem.NewDiskWithBackend(cfg, eng)
	g, in := b(d)
	d.SetFaultPlan(plan)
	goroutines := runtime.NumGoroutine()
	var emitted []string
	r, runErr := Run(g, in, func(a tuple.Assignment) {
		emitted = append(emitted, a.String())
	}, opts)
	assertNoLeaks(goroutines, fmt.Sprintf("backend=file opts=%+v err=%v", opts, runErr))
	st, xfer, dev := d.Stats(), d.Transfers(), d.DeviceStats()
	if st.Reads != xfer.TotalReads() || st.Writes != xfer.TotalWrites() {
		panic(fmt.Sprintf("seam parity broken: stats %+v vs transfers %+v", st, xfer))
	}
	// Engine-vs-ledger reconciliation, meaningful only on clean completion:
	// an aborted run unwinds mid-operator, after the engine may already have
	// billed transfers the ledger never settles. On a clean run the engine's
	// billed counters equal the performed side of the ledger exactly, fault
	// plan or not: device retries and repairs happen below the seam.
	if runErr == nil && (dev.BilledReads != xfer.Reads || dev.BilledWrites != xfer.Writes) {
		panic(fmt.Sprintf("engine observed %d/%d billed transfers, ledger performed %d/%d",
			dev.BilledReads, dev.BilledWrites, xfer.Reads, xfer.Writes))
	}
	return r, emitted, st, xfer, runErr
}

// FuzzBackendOracle is the differential oracle for storage backends: a
// fuzz-chosen acyclic query, instance, and memo mode evaluated on the
// os.File-backed engine must reproduce the counting simulator's run bit for
// bit — the emitted rows in emission order, the full Result stats, the
// winning Policy, and the final disk Stats. Both arms run unpruned so
// complete-Result identity is the contract. The file
// arm additionally byte-verifies every billed read against the in-memory
// image and checks the seam parity invariant inside engineRunBackend. Two
// model-layer fault arms then drive the same workload through the file
// engine: a cancellation that must leave a consistent partial result, and a
// permanent fault that must fail typed.
func FuzzBackendOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(25), uint8(2), uint8(1))
	f.Add(uint8(2), uint8(1), uint8(12), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, shape, size, rows, dom, memoOff uint8) {
		_, build := fuzzInstance(shape, size, rows, dom)
		opts := Options{Strategy: StrategyExhaustive, NoPrune: true}
		if memoOff%2 == 0 {
			build = memoed(build)
		}
		ref, refRows, refStats, refErr := engineRunOpts(build, opts)
		fb, fbRows, fbStats, _, fbErr := engineRunBackend(build, opts)
		if (refErr == nil) != (fbErr == nil) {
			t.Fatalf("errors diverge: sim %v, file %v", refErr, fbErr)
		}
		if refErr != nil {
			if refErr.Error() != fbErr.Error() {
				t.Fatalf("error text diverges: %q vs %q", refErr, fbErr)
			}
			return
		}
		samePinned(t, "file arm", ref, refRows, fb, fbRows)
		if fb.TotalStats != ref.TotalStats {
			t.Fatalf("total stats diverge: file %+v vs sim %+v", fb.TotalStats, ref.TotalStats)
		}
		if fbStats != refStats {
			t.Fatalf("final disk stats diverge: file %+v vs sim %+v", fbStats, refStats)
		}

		// Fault arms through the file engine's device path, mirroring
		// FuzzFaultOracle. Their parameters derive from the existing inputs so
		// the checked-in corpus keeps working. engineRunBackendFaults
		// re-checks seam parity on every arm, fault unwinds included.
		cancelArm(t, "file cancel arm", build, (int64(rows)*7+int64(size))%16, ref, refRows, refStats,
			func(plan *extmem.FaultPlan) (*Result, []string, extmem.Stats, error) {
				r, rows, st, _, err := engineRunBackendFaults(build, opts, plan)
				return r, rows, st, err
			})

		// Permanent arm: a guaranteed trigger must fail typed, and the engine
		// must come back consistent (parity is re-checked inside the helper
		// even though the run aborts mid-flight).
		permAt := int64(dom)%37 + 3
		_, _, _, _, perr := engineRunBackendFaults(build, opts, &extmem.FaultPlan{PermanentAt: permAt})
		if perr != nil {
			var fe *extmem.FaultError
			if !errors.As(perr, &fe) {
				t.Fatalf("file permanent arm failed untyped: %v", perr)
			}
		}
	})
}
