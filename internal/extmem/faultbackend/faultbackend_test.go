package faultbackend_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/faultbackend"
)

var cfg = extmem.Config{M: 64, B: 4}

// newFaultDisk opens a fault-injecting engine over a fresh anonymous arena
// and wraps it in a disk; the engine is closed at test end (Close after an
// explicit Close is a no-op, so tests may also close early).
func newFaultDisk(t *testing.T, plan extmem.DeviceFaultPlan) (*extmem.Disk, *faultbackend.Backend) {
	t.Helper()
	b, err := faultbackend.Open("", cfg, plan)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return extmem.NewDiskWithBackend(cfg, b), b
}

// fill appends n deterministic arity-2 tuples through the charged path and
// returns the sum of their first fields.
func fill(f *extmem.File, n int, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	w := f.NewWriter()
	var sum int64
	for i := 0; i < n; i++ {
		v := rng.Int63n(100)
		sum += v
		w.Append([]int64{v, rng.Int63n(100)})
	}
	w.Close()
	return sum
}

// readSum scans f and sums the first fields.
func readSum(f *extmem.File) int64 {
	r := f.NewReader()
	var sum int64
	for tup := r.Next(); tup != nil; tup = r.Next() {
		sum += tup[0]
	}
	return sum
}

// A high transient rate with burn-by-offset: every offset's first syscall may
// fail, its retry always passes, so the round trip terminates, the data is
// intact, and the retries are visible in the side channel — while the billed
// transfer counts match a fault-free engine exactly.
func TestTransientRetryTerminatesAndIsInvisible(t *testing.T) {
	const n, seed = 203, int64(11)
	clean, cleanEng := newFaultDisk(t, extmem.DeviceFaultPlan{})
	cf := clean.NewFile(2)
	want := fill(cf, n, seed)
	if got := readSum(cf); got != want {
		t.Fatalf("clean round trip: sum %d, want %d", got, want)
	}
	_ = cleanEng

	d, b := newFaultDisk(t, extmem.DeviceFaultPlan{Seed: 3, Rate: 0.9})
	f := d.NewFile(2)
	if got := fill(f, n, seed); got != want {
		t.Fatalf("faulted fill: sum %d, want %d", got, want)
	}
	if got := readSum(f); got != want {
		t.Fatalf("faulted round trip: sum %d, want %d", got, want)
	}
	fs := b.DeviceFaultStats()
	if fs.InjectedReads+fs.InjectedWrites == 0 {
		t.Fatalf("rate 0.9 injected nothing: %+v", fs)
	}
	if fs.Retries == 0 || fs.Retries != fs.RetriedReads+fs.RetriedWrites {
		t.Fatalf("retry accounting inconsistent: %+v", fs)
	}
	if fs.BackoffIOs == 0 {
		t.Fatalf("retries billed no backoff: %+v", fs)
	}
	if fs.DeviceDead != 0 || fs.NoSpace != 0 {
		t.Fatalf("transient plan latched a terminal state: %+v", fs)
	}
	if ds, cs := d.Stats(), clean.Stats(); ds != cs {
		t.Fatalf("charged stats diverge under transients: %+v vs clean %+v", ds, cs)
	}
}

// Torn writes corrupt a frame on the device while reporting success; the
// engine's read-back verification catches the checksum mismatch and repairs
// the frame from the authoritative in-memory image, transparently to the
// caller. Repairs land in the side channel.
func TestTornWriteRepairedFromImage(t *testing.T) {
	const n, seed = 407, int64(21)
	clean, _ := newFaultDisk(t, extmem.DeviceFaultPlan{})
	cf := clean.NewFile(2)
	want := fill(cf, n, seed)

	d, b := newFaultDisk(t, extmem.DeviceFaultPlan{Seed: 5, TornRate: 0.9})
	f := d.NewFile(2)
	fill(f, n, seed)
	// Two full scans: the first faces frames evicted during the fill (torn
	// copies verified and repaired on demand), the second re-reads repaired
	// frames to prove the repair actually landed on the device.
	for pass := 0; pass < 2; pass++ {
		if got := readSum(f); got != want {
			t.Fatalf("pass %d: sum %d, want %d", pass, got, want)
		}
	}
	fs := b.DeviceFaultStats()
	if fs.TornWrites == 0 {
		t.Fatalf("torn rate 0.9 tore nothing: %+v", fs)
	}
	if fs.Repairs == 0 {
		t.Fatalf("no torn frame was repaired (read-back never verified?): %+v", fs)
	}
	if fs.Repairs > fs.TornWrites {
		// A torn frame rewritten before read-back needs no repair, so
		// TornWrites bounds Repairs from above, never below.
		t.Fatalf("repaired %d frames but tore only %d", fs.Repairs, fs.TornWrites)
	}
}

// Space exhaustion is permanent: the first pwrite past the cap surfaces as a
// typed abort wrapping ErrNoSpace with zero retries, and the engine stays
// safely closable afterwards — Flush and Close return errors, never panic.
func TestNoSpaceTypedAndClosable(t *testing.T) {
	d, b := newFaultDisk(t, extmem.DeviceFaultPlan{NoSpaceAfter: 256})
	f := d.NewFile(2)
	_, err := d.CatchAbort(func() error {
		fill(f, 500, 1)
		readSum(f)
		return nil
	})
	if !errors.Is(err, extmem.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	fs := b.DeviceFaultStats()
	if fs.NoSpace == 0 {
		t.Fatalf("no space hit recorded: %+v", fs)
	}
	if fs.Retries != 0 {
		t.Fatalf("ENOSPC was retried %d times; it is permanent", fs.Retries)
	}
	if cerr := b.Close(); cerr != nil && !errors.Is(cerr, extmem.ErrNoSpace) {
		t.Fatalf("Close after ENOSPC: %v", cerr)
	}
}

// A dead device exhausts the bounded retry budget into ErrDevice; afterwards
// every path — more charged traffic, Flush, and concurrent explicit Closes —
// stays panic-free, and Close is idempotent.
func TestDeadDeviceCloseIdempotentUnderConcurrency(t *testing.T) {
	d, b := newFaultDisk(t, extmem.DeviceFaultPlan{DeadAt: 30})
	f := d.NewFile(2)
	_, err := d.CatchAbort(func() error {
		for i := 0; i < 50; i++ {
			fill(f, 100, int64(i))
			readSum(f)
		}
		return nil
	})
	if !errors.Is(err, extmem.ErrDevice) {
		t.Fatalf("err = %v, want ErrDevice", err)
	}
	if fs := b.DeviceFaultStats(); fs.DeviceDead != 1 {
		t.Fatalf("DeviceDead = %d, want 1", fs.DeviceDead)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Errors are expected (the device is dead); panics are not.
			b.Close()
		}()
	}
	wg.Wait()
	if cerr := b.Close(); cerr != nil && !errors.Is(cerr, extmem.ErrDevice) {
		t.Fatalf("re-Close after close: %v", cerr)
	}
}

// The injection schedule is a pure function of (plan, syscall index): two
// engines under the same plan and the same traffic report identical
// telemetry, and a reopened engine replays the same faults.
func TestInjectionDeterministic(t *testing.T) {
	run := func() extmem.DeviceFaultStats {
		d, b := newFaultDisk(t, extmem.DeviceFaultPlan{Seed: 9, Rate: 0.3, TornRate: 0.2})
		f := d.NewFile(2)
		fill(f, 203, 7)
		readSum(f)
		fs := b.DeviceFaultStats()
		b.Close()
		return fs
	}
	a, bb := run(), run()
	if a != bb {
		t.Fatalf("telemetry not deterministic:\nfirst  %+v\nsecond %+v", a, bb)
	}
	if a.InjectedReads+a.InjectedWrites == 0 || a.TornWrites == 0 {
		t.Fatalf("schedule fired nothing: %+v", a)
	}
}
