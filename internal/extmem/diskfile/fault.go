package diskfile

import (
	"fmt"
	"syscall"

	"acyclicjoin/internal/extmem"
)

// SetFaultPlan interposes a fault device under every engine syscall —
// charged preads and pwrites, unbilled load writes, backfills and repair
// rewrites alike — injecting per a device-layer plan:
//
//   - transient EIO on preads and pwrites, cleared by devCall's bounded retry
//     with exponential backoff;
//   - torn pwrites that report success but corrupt part of the frame,
//     detected by the next charged read's byte verification and rewritten
//     from the authoritative in-memory image;
//   - ENOSPC once the backing arena grows past NoSpaceAfter bytes, a typed
//     extmem.ErrNoSpace abort (space exhaustion is never retried);
//   - a dead device from syscall PermanentAt on, which exhausts the retry
//     budget into a typed extmem.ErrDevice abort.
//
// Transient and torn draws are decided per syscall index but burned per
// (operation, offset): an offset that faulted once never faults again, so the
// bounded retry terminates. The engine issues every syscall inline at a
// charged operation, so the syscall index — and with it the whole schedule —
// is a pure function of the plan and the charged schedule. Call it right
// after Open: the index counts syscalls from the arming. A nil, disabled or
// model-layer plan leaves the engine issuing syscalls straight to the file.
func (e *Engine) SetFaultPlan(p *extmem.FaultPlan) {
	if p == nil || p.Layer != extmem.LayerDevice || !p.Enabled() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dev = &faultDevice{inner: e.f, plan: *p, ledger: &e.faults, burned: map[burnKey]bool{}}
	e.maxRetries = p.Attempts()
	e.repairs = map[frameKey]int{}
}

// FaultStats returns the device fault ledger: injected transients, torn
// writes and ENOSPC hits, the engine's retries, backoff and repairs, and
// Permanent=1 once the device was declared dead.
func (e *Engine) FaultStats() extmem.FaultStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults
}

// burnKey identifies one (operation, device offset) fault site. Burning per
// site rather than per syscall index is what makes retries terminate: the
// re-issued syscall targets the same offset and passes.
type burnKey struct {
	op  byte // 'r', 'w', or 't' (torn)
	off int64
}

// faultDevice decides, per syscall, whether to fail, corrupt, or delegate to
// the backing file. The engine calls it under the engine mutex, which also
// guards the ledger it counts into.
type faultDevice struct {
	inner  device
	plan   extmem.FaultPlan
	ledger *extmem.FaultStats
	idx    int64 // syscalls observed (the fault hash key)
	burned map[burnKey]bool
	dead   bool
}

// decide advances the syscall index and picks this call's fate under the
// plan. It returns a non-nil error for an injected failure and torn=true for
// a write that must corrupt-and-succeed.
func (d *faultDevice) decide(op byte, off int64, n int) (err error, torn bool) {
	d.idx++
	p := &d.plan
	if d.dead || (p.PermanentAt > 0 && d.idx >= p.PermanentAt) {
		d.dead = true
		return fmt.Errorf("diskfile: injected permanent device failure (syscall %d)", d.idx), false
	}
	if op == 'w' && p.NoSpaceAfter > 0 && off+int64(n) > p.NoSpaceAfter {
		d.ledger.NoSpace++
		return fmt.Errorf("diskfile: injected %w at offset %d+%d (cap %d): %w",
			extmem.ErrNoSpace, off, n, p.NoSpaceAfter, syscall.ENOSPC), false
	}
	if p.Rate > 0 && !d.burned[burnKey{op, off}] && extmem.FaultDraw(p.Seed, d.idx) < p.Rate {
		d.burned[burnKey{op, off}] = true
		d.ledger.Transient++
		return fmt.Errorf("diskfile: injected transient %s fault at offset %d (syscall %d): %w",
			map[byte]string{'r': opRead, 'w': opWrite}[op], off, d.idx, syscall.EIO), false
	}
	// The torn draw uses its own seed stream so it never correlates with
	// the transient draw at the same index.
	if op == 'w' && p.TornRate > 0 && !d.burned[burnKey{'t', off}] && extmem.FaultDraw(p.Seed^0x7465617265, d.idx) < p.TornRate {
		d.burned[burnKey{'t', off}] = true
		d.ledger.Torn++
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
		// A torn write: report success but land a corrupted copy — a
		// deterministic bit flip in the middle of the payload. The caller's
		// buffer is never touched; the damage exists only on the device, for
		// the engine's verification pass to catch.
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
