// Package faultbackend wraps the os.File storage engine with deterministic,
// seeded syscall-level fault injection: the chaos rig for the layer the
// charged I/O model actually ships on. It interposes a fault device beneath
// internal/extmem/diskfile — under every pread and pwrite, including the ones
// issued by the async flusher and prefetch workers, which never cross the
// Backend seam — and injects four failure classes from an
// extmem.DeviceFaultPlan:
//
//   - transient EIO on reads and writes, cleared by the engine's bounded
//     retry with exponential backoff;
//   - torn writes that report success but corrupt part of the frame, detected
//     by the engine's standing byte-verification and repaired from the
//     authoritative in-memory image;
//   - ENOSPC once the backing arena grows past a byte cap, surfacing as a
//     typed extmem.ErrNoSpace abort (space exhaustion is never retried);
//   - a dead device from syscall number DeadAt on, which exhausts the retry
//     budget and surfaces as a typed extmem.ErrDevice abort (or triggers the
//     degraded-mode simulator fallback when the plan asks for it).
//
// Transient and torn draws are decided per syscall index but burned per
// (operation, offset): an offset that faulted once never faults again, so the
// engine's bounded retry provably terminates — the device-level mirror of the
// model-level burned-index rule in extmem's FaultPlan. Because every injected
// fault is either absorbed below the Backend seam or unwound as a typed
// abort, charged Stats, results, and every deterministic experiment table
// stay bit-identical to the fault-free run; the injection and recovery work
// is reported through the DeviceFaultStats side channel instead.
package faultbackend

import (
	"fmt"
	"sync"
	"syscall"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
)

// Backend is the diskfile engine with a fault device interposed. It
// implements extmem.Backend by promotion (Name still reports "file": the
// engine above the fault device is the real one, and results must be
// indistinguishable) and extmem.DeviceFaultReporter by merging the device's
// injection counters with the engine's recovery counters.
type Backend struct {
	*diskfile.Engine
	dev *faultDevice
}

// Open builds a file engine for cfg with a fault device injecting per plan.
// dir and syncDev mean what they mean for diskfile.Open; plan.MaxRetries
// bounds the engine's inline retry loop.
func Open(dir string, cfg extmem.Config, syncDev bool, plan extmem.DeviceFaultPlan) (*Backend, error) {
	var fd *faultDevice
	eng, err := diskfile.OpenWithDevice(dir, cfg, syncDev, plan.MaxRetries, func(d diskfile.Device) diskfile.Device {
		fd = &faultDevice{inner: d, plan: plan, burned: map[burnKey]bool{}}
		return fd
	})
	if err != nil {
		return nil, err
	}
	return &Backend{Engine: eng, dev: fd}, nil
}

// OpenBackend opens the file storage engine the way every caller selects it:
// with a fault device injecting per plan when plan is non-nil and enabled,
// otherwise the plain engine. syncDev pins the synchronous device path;
// false leaves the choice to ACYCLICJOIN_SYNC_DEVICE, as diskfile.Open does.
func OpenBackend(dir string, cfg extmem.Config, syncDev bool, plan *extmem.DeviceFaultPlan) (extmem.Backend, error) {
	if plan != nil && plan.Enabled() {
		b, err := Open(dir, cfg, syncDev || diskfile.SyncFromEnv(), *plan)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	open := diskfile.Open
	if syncDev {
		open = diskfile.OpenSync
	}
	eng, err := open(dir, cfg)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// DeviceFaultStats implements extmem.DeviceFaultReporter: the injection-side
// counters from the fault device plus the recovery-side counters from the
// engine.
func (b *Backend) DeviceFaultStats() extmem.DeviceFaultStats {
	return b.dev.snapshot().Add(b.Engine.DeviceFaultRecovery())
}

// burnKey identifies one (operation, device offset) fault site. Burning per
// site rather than per syscall index is what makes retries terminate: the
// re-issued syscall targets the same offset and passes.
type burnKey struct {
	op  byte // 'r', 'w', or 't' (torn)
	off int64
}

// faultDevice decides, per syscall, whether to fail, corrupt, or delegate.
// It must be safe for concurrent use (the async workers and charged
// operations overlap), so its decision state sits behind its own mutex —
// never held across the delegated syscall.
type faultDevice struct {
	inner  diskfile.Device
	plan   extmem.DeviceFaultPlan
	mu     sync.Mutex
	idx    int64 // syscalls observed (the fault hash key)
	burned map[burnKey]bool
	stats  extmem.DeviceFaultStats
	dead   bool
}

func (d *faultDevice) snapshot() extmem.DeviceFaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// decide advances the syscall index and picks this call's fate under the
// plan. It returns a non-nil error for an injected failure and torn=true for
// a write that must corrupt-and-succeed.
func (d *faultDevice) decide(op byte, off int64, n int) (err error, torn bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx++
	p := &d.plan
	if d.dead || (p.DeadAt > 0 && d.idx >= p.DeadAt) {
		d.dead = true
		d.stats.DeviceDead = 1
		return fmt.Errorf("faultbackend: injected permanent device failure (syscall %d)", d.idx), false
	}
	if op == 'w' && p.NoSpaceAfter > 0 && off+int64(n) > p.NoSpaceAfter {
		d.stats.NoSpace++
		return fmt.Errorf("faultbackend: injected %w at offset %d+%d (cap %d): %w",
			extmem.ErrNoSpace, off, n, p.NoSpaceAfter, syscall.ENOSPC), false
	}
	if p.Rate > 0 && !d.burned[burnKey{op, off}] && draw(p.Seed, d.idx) < p.Rate {
		d.burned[burnKey{op, off}] = true
		if op == 'w' {
			d.stats.InjectedWrites++
		} else {
			d.stats.InjectedReads++
		}
		return fmt.Errorf("faultbackend: injected transient %s fault at offset %d (syscall %d): %w",
			map[byte]string{'r': "pread", 'w': "pwrite"}[op], off, d.idx, syscall.EIO), false
	}
	if op == 'w' && p.TornRate > 0 && !d.burned[burnKey{'t', off}] && draw(p.Seed^0x7465617265, d.idx) < p.TornRate {
		d.burned[burnKey{'t', off}] = true
		d.stats.TornWrites++
		return nil, true
	}
	return nil, false
}

func (d *faultDevice) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := d.decide('r', off, len(p)); err != nil {
		return 0, err
	}
	return d.inner.ReadAt(p, off)
}

func (d *faultDevice) WriteAt(p []byte, off int64) (int, error) {
	err, torn := d.decide('w', off, len(p))
	if err != nil {
		return 0, err
	}
	if torn {
		// A torn write: report success but land a corrupted copy — a deterministic
		// bit flip in the middle of the payload. The caller's buffer is never
		// touched; the damage exists only on the device, for the engine's
		// verification pass to catch.
		c := make([]byte, len(p))
		copy(c, p)
		c[len(c)/2] ^= 0xff
		if _, werr := d.inner.WriteAt(c, off); werr != nil {
			return 0, werr
		}
		return len(p), nil
	}
	return d.inner.WriteAt(p, off)
}

// draw maps (seed, idx) to a uniform [0,1) draw with a splitmix64-style mix,
// matching the model-level fault hash.
func draw(seed, idx int64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
