package diskfile_test

import (
	"errors"
	"sync"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
)

// newFaultDisk opens an engine over a fresh anonymous arena, arms plan as a
// device-layer plan, and wraps it in a disk; the engine is closed at test end
// (Close after an explicit Close is a no-op, so tests may also close early).
func newFaultDisk(t *testing.T, plan extmem.FaultPlan) (*extmem.Disk, *diskfile.Engine) {
	t.Helper()
	d, eng := newFileDisk(t, "")
	plan.Layer = extmem.LayerDevice
	eng.SetFaultPlan(&plan)
	return d, eng
}

// cleanScan fills a file on a fault-free engine and returns its scan
// checksum, the reference every faulted round trip must reproduce.
func cleanScan(t *testing.T, n int, seed int64) (int, int64) {
	t.Helper()
	d, _ := newFaultDisk(t, extmem.FaultPlan{})
	f := d.NewFile(2)
	fill(f, n, seed)
	return scanSum(f)
}

// A high transient rate with burn-by-offset: every offset's first syscall may
// fail, its retry always passes, so the round trip terminates, the data is
// intact, and the retries are visible in the ledger — while the charged
// stats match a fault-free engine exactly.
func TestTransientRetryTerminatesAndIsInvisible(t *testing.T) {
	const n, seed = 203, int64(11)
	clean, _ := newFaultDisk(t, extmem.FaultPlan{})
	cf := clean.NewFile(2)
	fill(cf, n, seed)
	wantN, want := scanSum(cf)

	d, eng := newFaultDisk(t, extmem.FaultPlan{Seed: 3, Rate: 0.9})
	f := d.NewFile(2)
	fill(f, n, seed)
	if gotN, got := scanSum(f); gotN != wantN || got != want {
		t.Fatalf("faulted round trip: %d tuples sum %d, want %d sum %d", gotN, got, wantN, want)
	}
	fs := eng.FaultStats()
	if fs.Transient == 0 {
		t.Fatalf("rate 0.9 injected nothing: %+v", fs)
	}
	if fs.Retries != fs.Transient || fs.Retries != fs.RetryReads+fs.RetryWrites {
		t.Fatalf("retry accounting inconsistent: %+v", fs)
	}
	if fs.BackoffIOs == 0 {
		t.Fatalf("retries billed no backoff: %+v", fs)
	}
	if fs.Permanent != 0 || fs.NoSpace != 0 {
		t.Fatalf("transient plan latched a terminal state: %+v", fs)
	}
	if ds, cs := d.Stats(), clean.Stats(); ds != cs {
		t.Fatalf("charged stats diverge under transients: %+v vs clean %+v", ds, cs)
	}
}

// Torn writes corrupt a frame on the device while reporting success; the
// engine's read-back verification catches the mismatch and repairs the frame
// from the authoritative in-memory image, transparently to the caller.
// Repairs land in the ledger.
func TestTornWriteRepairedFromImage(t *testing.T) {
	const n, seed = 407, int64(21)
	wantN, want := cleanScan(t, n, seed)

	d, eng := newFaultDisk(t, extmem.FaultPlan{Seed: 5, TornRate: 0.9})
	f := d.NewFile(2)
	fill(f, n, seed)
	// Two full scans: the first verifies every torn copy and repairs it
	// from the image, the second re-reads the repaired frames to prove the
	// repair actually landed on the device.
	for pass := 0; pass < 2; pass++ {
		if gotN, got := scanSum(f); gotN != wantN || got != want {
			t.Fatalf("pass %d: %d tuples sum %d, want %d sum %d", pass, gotN, got, wantN, want)
		}
	}
	fs := eng.FaultStats()
	if fs.Torn == 0 {
		t.Fatalf("torn rate 0.9 tore nothing: %+v", fs)
	}
	if fs.Repairs == 0 {
		t.Fatalf("no torn frame was repaired (read-back never verified?): %+v", fs)
	}
	if fs.Repairs > fs.Torn {
		// A torn frame rewritten before read-back needs no repair, so Torn
		// bounds Repairs from above, never below.
		t.Fatalf("repaired %d frames but tore only %d", fs.Repairs, fs.Torn)
	}
}

// A torn write is caught by the next read of its frame. With every first
// pwrite at an offset torn, a fill of four frames (well inside M/B) tears each
// of them, and one scan verifies every frame against the device and repairs
// each tear from the image.
func TestTornWriteCaughtOnNextRead(t *testing.T) {
	n, seed := 4*cfg.B, int64(31)
	wantN, want := cleanScan(t, n, seed)

	d, eng := newFaultDisk(t, extmem.FaultPlan{Seed: 5, TornRate: 1})
	f := d.NewFile(2)
	fill(f, n, seed)
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if gotN, got := scanSum(f); gotN != wantN || got != want {
		t.Fatalf("scan: %d tuples sum %d, want %d sum %d", gotN, got, wantN, want)
	}
	if fs := eng.FaultStats(); fs.Torn == 0 || fs.Repairs != fs.Torn {
		t.Fatalf("torn=%d repairs=%d, want every tear repaired on its next read", fs.Torn, fs.Repairs)
	}
}

// Space exhaustion is permanent: the first pwrite past the cap surfaces as a
// typed abort wrapping ErrNoSpace with zero retries, and the engine stays
// safely closable afterwards — Flush and Close return errors, never panic.
func TestNoSpaceTypedAndClosable(t *testing.T) {
	d, eng := newFaultDisk(t, extmem.FaultPlan{NoSpaceAfter: 256})
	f := d.NewFile(2)
	_, err := d.CatchAbort(func() error {
		fill(f, 500, 1)
		scanSum(f)
		return nil
	})
	if !errors.Is(err, extmem.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	fs := eng.FaultStats()
	if fs.NoSpace == 0 {
		t.Fatalf("no space hit recorded: %+v", fs)
	}
	if fs.Retries != 0 {
		t.Fatalf("ENOSPC was retried %d times; it is permanent", fs.Retries)
	}
	if cerr := eng.Close(); cerr != nil && !errors.Is(cerr, extmem.ErrNoSpace) {
		t.Fatalf("Close after ENOSPC: %v", cerr)
	}
}

// A dead device exhausts the bounded retry budget into ErrDevice; afterwards
// every path — more charged traffic, Flush, and concurrent explicit Closes —
// stays panic-free, and Close is idempotent.
func TestDeadDeviceCloseIdempotentUnderConcurrency(t *testing.T) {
	d, eng := newFaultDisk(t, extmem.FaultPlan{PermanentAt: 30})
	f := d.NewFile(2)
	_, err := d.CatchAbort(func() error {
		for i := 0; i < 50; i++ {
			fill(f, 100, int64(i))
			scanSum(f)
		}
		return nil
	})
	if !errors.Is(err, extmem.ErrDevice) {
		t.Fatalf("err = %v, want ErrDevice", err)
	}
	if fs := eng.FaultStats(); fs.Permanent != 1 {
		t.Fatalf("Permanent = %d, want 1", fs.Permanent)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Errors are expected (the device is dead); panics are not.
			eng.Close()
		}()
	}
	wg.Wait()
	if cerr := eng.Close(); cerr != nil && !errors.Is(cerr, extmem.ErrDevice) {
		t.Fatalf("re-Close after close: %v", cerr)
	}
}

// The injection schedule is a pure function of (plan, syscall index): two
// engines under the same plan and the same traffic report identical ledgers.
func TestInjectionDeterministic(t *testing.T) {
	run := func() extmem.FaultStats {
		d, eng := newFaultDisk(t, extmem.FaultPlan{Seed: 9, Rate: 0.3, TornRate: 0.2})
		f := d.NewFile(2)
		fill(f, 203, 7)
		scanSum(f)
		fs := eng.FaultStats()
		eng.Close()
		return fs
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("ledger not deterministic:\nfirst  %+v\nsecond %+v", a, b)
	}
	if a.Transient == 0 || a.Torn == 0 {
		t.Fatalf("schedule fired nothing: %+v", a)
	}
}
