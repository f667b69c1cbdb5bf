package acyclicjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// devFaultDifferentialRates is the acceptance grid: at every rate the faulted
// file run must reproduce the fault-free run bit for bit.
var devFaultDifferentialRates = []float64{0.02, 0.05, 0.20}

// TestDeviceFaultDifferentialRates is the PR's differential proof: random
// acyclic queries through the public API with device-level faults injected
// under the file engine — transient EIO plus torn writes — at every sweep
// rate, compared against the fault-free file run and the counting simulator.
// The full public Result (rows in emission order, Count, Stats, Plan) is
// bit-identical; all retry and repair traffic lands in the Faults ledger,
// never the main Stats.
func TestDeviceFaultDifferentialRates(t *testing.T) {
	var injected int64
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%3 == 0)
		base := Options{Memory: 64, Block: 8}
		simOpts := base
		simOpts.Backend = "sim"
		fileOpts := base
		fileOpts.Backend = "file"
		simRes, simRows := backendRunRows(t, q, inst, simOpts)
		fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
		for _, rate := range devFaultDifferentialRates {
			label := fmt.Sprintf("trial %d rate %v", trial, rate)
			faultOpts := fileOpts
			faultOpts.Faults = &FaultPlan{Layer: LayerDevice,
				Seed: int64(trial)*31 + 9, Rate: rate, TornRate: rate / 2}
			faultRes, faultRows := backendRunRows(t, q, inst, faultOpts)
			if len(faultRows) != len(fileRows) {
				t.Fatalf("%s: emitted %d rows faulted, %d fault-free", label, len(faultRows), len(fileRows))
			}
			for i := range fileRows {
				if faultRows[i] != fileRows[i] {
					t.Fatalf("%s: row %d diverges: faulted %q, fault-free %q", label, i, faultRows[i], fileRows[i])
				}
				if simRows[i] != fileRows[i] {
					t.Fatalf("%s: row %d diverges across backends: sim %q, file %q", label, i, simRows[i], fileRows[i])
				}
			}
			if faultRes.Count != fileRes.Count || faultRes.Stats != fileRes.Stats ||
				faultRes.Plan != fileRes.Plan || faultRes.Stats != simRes.Stats {
				t.Fatalf("%s: results diverge:\nfaulted    %+v\nfault-free %+v", label, faultRes, fileRes)
			}
			checkTransferParity(t, label, faultRes)
			fs := faultRes.Faults
			injected += fs.Transient + fs.Torn
			if fs.NoSpace != 0 || fs.Permanent != 0 {
				t.Fatalf("%s: transient plan reported terminal telemetry: %+v", label, fs)
			}
		}
	}
	if injected == 0 {
		t.Fatal("the sweep injected no device faults; the plan never reached the engine")
	}
}

// TestDeviceFaultNoSpaceTyped exhausts the arena growth cap: the run aborts
// with a typed ErrNoSpace — no panic — and a partial Result whose fault
// ledger records the space failure. ENOSPC is never retried.
func TestDeviceFaultNoSpaceTyped(t *testing.T) {
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, Options{Memory: 64, Block: 8, Backend: "file",
		Faults: &FaultPlan{Layer: LayerDevice, NoSpaceAfter: 512}}, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if res == nil {
		t.Fatal("no partial Result returned with the typed error")
	}
	fs := res.Faults
	if fs.NoSpace < 1 {
		t.Fatalf("NoSpace = %d, want >= 1", fs.NoSpace)
	}
	if fs.Retries != 0 {
		t.Fatalf("space exhaustion was retried %d times; ENOSPC is permanent", fs.Retries)
	}
}

// TestDeviceFaultDataDirHygiene pins the arena hygiene contract under an
// aborted run: with a retained -datadir, the backing file must be gone after
// RunContext returns the typed ENOSPC error — the deferred engine close runs
// on the failure path too.
func TestDeviceFaultDataDirHygiene(t *testing.T) {
	dir := t.TempDir()
	q, inst := buildTinyQuery(t)
	_, err := Run(q, inst, Options{Memory: 64, Block: 8, Backend: "file", DataDir: dir,
		Faults: &FaultPlan{Layer: LayerDevice, NoSpaceAfter: 512}}, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	left, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(left) != 0 {
		var names []string
		for _, e := range left {
			names = append(names, filepath.Join(dir, e.Name()))
		}
		t.Fatalf("backing files leaked after aborted run: %v", names)
	}
}

// TestDeviceFaultDeadDeviceTyped kills the device outright: every syscall
// from the trigger on fails, the bounded retry budget exhausts, and the run
// aborts with a typed ErrDevice and a partial Result.
func TestDeviceFaultDeadDeviceTyped(t *testing.T) {
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, Options{Memory: 64, Block: 8, Backend: "file",
		Faults: &FaultPlan{Layer: LayerDevice, PermanentAt: 10}}, nil)
	if !errors.Is(err, ErrDevice) {
		t.Fatalf("err = %v, want ErrDevice", err)
	}
	if res == nil {
		t.Fatal("no partial Result returned with the typed error")
	}
	if res.Faults.Permanent != 1 {
		t.Fatalf("Permanent = %d, want 1", res.Faults.Permanent)
	}
}

// TestDeviceFaultSimBackendNoop pins the documented scoping: a device-layer
// plan on the sim backend is a no-op — there are no syscalls to fault — and
// the run matches a plan-free run exactly, with an empty fault ledger.
func TestDeviceFaultSimBackendNoop(t *testing.T) {
	q, inst := buildTinyQuery(t)
	wantRes, wantRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Backend: "sim"})
	gotRes, gotRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Backend: "sim",
		Faults: &FaultPlan{Layer: LayerDevice, Rate: 0.5, TornRate: 0.5, PermanentAt: 3}})
	if gotRes.Faults.Any() {
		t.Fatalf("sim backend reported device-fault telemetry: %+v", gotRes.Faults)
	}
	if gotRes.Count != wantRes.Count || gotRes.Stats != wantRes.Stats ||
		len(gotRows) != len(wantRows) {
		t.Fatalf("sim run changed under a device plan:\nwith plan %+v\nwithout   %+v", gotRes, wantRes)
	}
}

// TestDeviceFaultEnvFallback proves $ACYCLICJOIN_DEVFAULTRATE arms a
// default-options run — the hook the CI chaos-device job uses to re-run the
// whole suite faulted without code changes — that an explicit Options.Faults
// shadows it, and that RunContext rejects a malformed value with a named
// error instead of silently ignoring it.
func TestDeviceFaultEnvFallback(t *testing.T) {
	t.Setenv("ACYCLICJOIN_BACKEND", "file")
	t.Setenv("ACYCLICJOIN_DEVFAULTRATE", "0.5")
	q, inst := buildTinyQuery(t)
	want, wantRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Faults: &FaultPlan{}})
	res, rows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8})
	if res.Backend != "file" {
		t.Fatalf("Backend = %q, want file via env", res.Backend)
	}
	if fs := res.Faults; fs.Transient == 0 || fs.RetryReads+fs.RetryWrites != fs.Transient {
		t.Fatalf("env-armed plan: want injected transients, each retried once: %+v", fs)
	}
	if want.Faults.Any() {
		t.Fatalf("explicit plan did not shadow the env: %+v", want.Faults)
	}
	if res.Count != want.Count || res.Stats != want.Stats || len(rows) != len(wantRows) {
		t.Fatalf("faulted env run diverges:\nfaulted    %+v\nfault-free %+v", res, want)
	}

	t.Setenv("ACYCLICJOIN_DEVFAULTRATE", "banana")
	if _, err := Run(q, inst, Options{Memory: 64, Block: 8}, nil); err == nil ||
		!strings.Contains(err.Error(), "ACYCLICJOIN_DEVFAULTRATE") ||
		!strings.Contains(err.Error(), "banana") {
		t.Fatalf("bad env rate: err = %v, want it named with the value", err)
	}
}

// FuzzDevFaultOracle is the randomized arm of the differential proof through
// the public API: a random acyclic query, a random device-layer fault
// schedule and memo mode — the faulted file run must match the fault-free
// file run and the counting simulator on the full public Result, with all
// recovery in the Faults ledger. Corpus seeds cover each rate tier and
// MemoOff. mode bit 1 selects MemoOff and bit 2 string-valued data; bit 0 is
// unused, kept so existing inputs decode unchanged. core's FuzzFaultOracle
// runs the same device arm below the public API.
func FuzzDevFaultOracle(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(20), uint8(1))
	f.Add(int64(7), uint8(5), uint8(3))
	f.Add(int64(99), uint8(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ratePct, mode uint8) {
		rate := float64(ratePct%26) / 100 // 0 to 0.25
		rng := rand.New(rand.NewSource(seed))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, mode&4 != 0)
		opts := Options{Memory: 64, Block: 8}
		if mode&2 != 0 {
			opts.Memo = MemoOff
		}
		simOpts := opts
		simOpts.Backend = "sim"
		fileOpts := opts
		fileOpts.Backend = "file"
		faultOpts := fileOpts
		faultOpts.Faults = &FaultPlan{Layer: LayerDevice, Seed: seed ^ 0x5eed, Rate: rate, TornRate: rate / 2}
		simRes, simRows := backendRunRows(t, q, inst, simOpts)
		fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
		faultRes, faultRows := backendRunRows(t, q, inst, faultOpts)
		if len(simRows) != len(fileRows) || len(fileRows) != len(faultRows) {
			t.Fatalf("row counts diverge: sim %d, file %d, faulted %d", len(simRows), len(fileRows), len(faultRows))
		}
		for i := range simRows {
			if simRows[i] != fileRows[i] || fileRows[i] != faultRows[i] {
				t.Fatalf("row %d diverges: sim %q, file %q, faulted %q", i, simRows[i], fileRows[i], faultRows[i])
			}
		}
		if simRes.Count != faultRes.Count || simRes.Stats != faultRes.Stats || simRes.Plan != faultRes.Plan {
			t.Fatalf("results diverge:\nsim     %+v\nfaulted %+v", simRes, faultRes)
		}
		if fileRes.Transfers != faultRes.Transfers || fileRes.PlanningStats != faultRes.PlanningStats {
			t.Fatalf("charged accounting diverges under faults:\nfault-free %+v %+v\nfaulted    %+v %+v",
				fileRes.PlanningStats, fileRes.Transfers, faultRes.PlanningStats, faultRes.Transfers)
		}
		checkTransferParity(t, "fuzz faulted", faultRes)
		if fs := faultRes.Faults; fs.NoSpace != 0 || fs.Permanent != 0 {
			t.Fatalf("transient plan reported terminal telemetry: %+v", fs)
		}
	})
}
