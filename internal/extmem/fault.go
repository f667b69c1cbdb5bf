// Fault injection, cancellation, and abort unwinding.
//
// One FaultPlan describes every injected failure. Its Layer picks where the
// plan fires:
//
//   - LayerModel (the zero value) fails charges on the simulated disk, keyed
//     on the disk's accumulated I/O index (preCharge): a permanent fault at
//     PermanentAt, or a cancellation at CancelAt. Both unwind the run; the
//     model layer injects no transients, since a fault the simulated disk
//     clears at once would change nothing but its own counters.
//   - LayerDevice decides faults per pread/pwrite under the file engine's
//     syscalls (internal/extmem/diskfile arms it). The engine recovers below
//     the Backend seam: bounded retry for transient errors, and re-flushing
//     the authoritative in-memory image to repair a torn frame. The sim
//     backend has no syscalls, so there a device plan is a no-op.
//
// Recovery work is billed to the FaultStats ledger, never the main Stats: a
// run whose device faults were all absorbed keeps Stats bit-identical to the
// fault-free run while the recovery cost stays visible. Failures no layer
// can absorb unwind as typed errors:
//
//   - Permanent faults: a model-layer *FaultError injected via PermanentAt,
//     or a device failure wrapping ErrDevice, ErrNoSpace or ErrCorruption.
//   - Cancellation: Cancel (usually driven by WatchContext observing a
//     context.Context) marks the disk; its next non-suspended charge panics
//     with an error wrapping ErrCancelled.
//
// CatchAbort converts every one of them into an error return.
package extmem

import (
	"context"
	"errors"
	"fmt"
)

// ErrCancelled is the sentinel wrapped by every cancellation error. A run
// unwound by Cancel/WatchContext returns an error satisfying
// errors.Is(err, ErrCancelled).
var ErrCancelled = errors.New("extmem: run cancelled")

// ErrDevice is the sentinel wrapped by every unrecoverable device failure: a
// syscall that kept failing after the engine's bounded retries, or any
// operation attempted after the device was declared dead.
var ErrDevice = errors.New("extmem: permanent device failure")

// ErrNoSpace is the sentinel wrapped when the device runs out of space while
// growing the backing arena. Space exhaustion is never retried — repeating the
// allocation cannot help — so it aborts the run with a partial Result.
var ErrNoSpace = errors.New("extmem: device out of space")

// ErrCorruption is the sentinel wrapped when a device frame disagrees with the
// authoritative in-memory image and could not be repaired (or, with no device
// plan armed, as soon as the mismatch is detected — silent repair would mask
// a real engine bug).
var ErrCorruption = errors.New("extmem: device corruption")

// IsDeviceFailure reports whether err is any of the device-failure sentinels
// (ErrDevice, ErrNoSpace, ErrCorruption).
func IsDeviceFailure(err error) bool {
	return errors.Is(err, ErrDevice) || errors.Is(err, ErrNoSpace) || errors.Is(err, ErrCorruption)
}

// FaultError is the typed error thrown (as a panic) by the charging path when
// a permanent model-layer fault fires; it unwinds to CatchAbort.
type FaultError struct {
	// Op is the failed transfer's direction: "read" or "write".
	Op string
	// Index is the disk's accumulated I/O count when the fault fired — the
	// zero-based index of the failed block transfer.
	Index int64
	// Phase is the phase label the transfer was charged under.
	Phase string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("extmem: injected permanent %s fault at I/O %d (phase %q)", e.Op, e.Index, e.Phase)
}

// FaultLayer selects where a FaultPlan injects.
type FaultLayer int

const (
	// LayerModel injects per charged block on the simulated disk.
	LayerModel FaultLayer = iota
	// LayerDevice injects per syscall under the file engine.
	LayerDevice
)

// DefaultMaxDeviceAttempts is how often the file engine re-issues one failed
// syscall before declaring the device dead. Device transients are burned per
// (operation, offset) and clear on the first retry; the low cap exists so a
// genuinely stuck device (PermanentAt, or real hardware) fails over to
// ErrDevice quickly.
const DefaultMaxDeviceAttempts = 8

// FaultPlan is a deterministic, seeded fault schedule. The zero value injects
// nothing. Faults are decided per block charge (LayerModel) or per device
// syscall (LayerDevice), keyed on that layer's own running index, so the
// schedule is a pure function of the plan and the charge sequence — the same
// run faults the same way every time. Some fields apply to one layer only;
// acyclicjoin.RunContext rejects a plan that sets a field of the other layer.
type FaultPlan struct {
	// Seed keys the fault hash.
	Seed int64
	// Layer selects the injection point; the zero value is LayerModel.
	Layer FaultLayer
	// Rate (device only) is the per-syscall probability of a transient
	// fault, in [0, 1]. Each syscall index draws independently, and a fault
	// burns its site (the operation and offset), so a retried syscall never
	// faults again and retries always terminate.
	Rate float64
	// TornRate (device only) is the per-pwrite probability that the call
	// reports success but corrupts part of the written frame. The engine
	// detects the mismatch on the next verified read and repairs the frame
	// from the in-memory image.
	TornRate float64
	// PermanentAt, if positive, fails permanently from I/O number PermanentAt
	// on (1 = the very first). On the model layer that is one permanent
	// *FaultError at that charge; on the device layer the device is dead from
	// that syscall on, modelling a pulled disk.
	PermanentAt int64
	// CancelAt (model only), if positive, cancels the disk at the first
	// charge that would be I/O number CancelAt — a deterministic stand-in for
	// an external context cancellation arriving mid-run.
	CancelAt int64
	// NoSpaceAfter (device only), if positive, injects ENOSPC once the
	// backing arena would grow beyond this many bytes.
	NoSpaceAfter int64
	// Phase (model only), if non-empty, restricts permanent injection to
	// charges carrying that phase label.
	Phase string
	// MaxAttempts (device only) caps the re-issues of one failed syscall
	// before the device is declared dead. Zero means
	// DefaultMaxDeviceAttempts.
	MaxAttempts int
}

// Enabled reports whether the plan injects or cancels anything.
func (p FaultPlan) Enabled() bool {
	return p.Rate > 0 || p.TornRate > 0 || p.PermanentAt > 0 || p.CancelAt > 0 || p.NoSpaceAfter > 0
}

// Attempts is MaxAttempts with the default resolved.
func (p FaultPlan) Attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxDeviceAttempts
}

// Validate rejects a plan that sets a field its layer never reads.
func (p FaultPlan) Validate() error {
	switch p.Layer {
	case LayerModel:
		if p.Rate != 0 || p.TornRate != 0 || p.NoSpaceAfter != 0 || p.MaxAttempts != 0 {
			return errors.New("fault plan: Rate, TornRate, NoSpaceAfter and MaxAttempts apply to the device layer only")
		}
	case LayerDevice:
		if p.CancelAt != 0 || p.Phase != "" {
			return errors.New("fault plan: CancelAt and Phase apply to the model layer only")
		}
	default:
		return fmt.Errorf("fault plan: unknown layer %d", int(p.Layer))
	}
	return nil
}

// FaultStats is the recovery ledger of one fault plan. Retry I/O never
// touches the main Stats — that is what keeps a fully absorbed run
// bit-identical to the fault-free run — but it is counted here, so the full
// cost of failure recovery stays reported.
type FaultStats struct {
	// Transient counts injected transient syscall faults (device only).
	Transient int64
	// Permanent counts permanent injections on the model layer, and is 1
	// once the device has been declared dead on the device layer.
	Permanent int64
	// Torn counts pwrites that reported success but corrupted the frame, and
	// Repairs the torn frames rebuilt from the in-memory image.
	Torn    int64
	Repairs int64
	// NoSpace counts injected ENOSPC failures on arena growth.
	NoSpace int64
	// Retries counts re-issues of a failed syscall (device only); each
	// clears its fault or fails again until MaxAttempts.
	Retries int64
	// RetryReads and RetryWrites total the syscalls re-issued by retries
	// (device only) — the honest I/O cost of recovery.
	RetryReads  int64
	RetryWrites int64
	// BackoffIOs totals the simulated backoff cost charged per retry
	// (device only): 2^(attempt-1) block-times (capped) for the attempt-th
	// re-issue of one failed syscall.
	BackoffIOs int64
}

// Any reports whether any fault activity was recorded.
func (s FaultStats) Any() bool { return s != FaultStats{} }

func (s FaultStats) String() string {
	return fmt.Sprintf("transient=%d permanent=%d torn=%d repairs=%d noSpace=%d retries=%d retryReads=%d retryWrites=%d backoffIOs=%d",
		s.Transient, s.Permanent, s.Torn, s.Repairs, s.NoSpace, s.Retries,
		s.RetryReads, s.RetryWrites, s.BackoffIOs)
}

// faultInjector holds one disk's model-layer fault state. Like the rest of
// the Disk it is goroutine-confined.
type faultInjector struct {
	plan        FaultPlan
	permanent   bool // the PermanentAt fault already fired
	cancelFired bool // the CancelAt trigger already fired
	stats       FaultStats
}

// SetFaultPlan arms (or, with nil or a disabled plan, disarms) model-layer
// fault injection on d; a device-layer plan arms nothing here (the file
// engine takes it). Arming resets any previous injector state and ledger,
// and clears the cancellation latch — changing the plan starts a new fault
// experiment, so an abort a previous plan triggered (a CancelAt firing, or
// an external Cancel) must not poison the next run on the same disk.
func (d *Disk) SetFaultPlan(p *FaultPlan) {
	d.cancelErr.Store(nil)
	if p == nil || p.Layer != LayerModel || !p.Enabled() {
		d.faults = nil
		return
	}
	d.faults = &faultInjector{plan: *p}
}

// FaultStats returns the model-layer fault ledger accumulated on d.
func (d *Disk) FaultStats() FaultStats {
	if d.faults == nil {
		return FaultStats{}
	}
	return d.faults.stats
}

// preCharge runs the cancellation and fault checks guarding one block charge.
// Called only on the non-suspended charging path, before the budget watermark
// is consulted, so an injected fault never applies any part of the charge.
func (d *Disk) preCharge(op string, idx int64) {
	if p := d.cancelErr.Load(); p != nil {
		panic(*p)
	}
	if d.faults != nil {
		d.faults.check(d, op, idx)
	}
}

// check decides whether the charge about to become I/O number idx+1 faults.
func (inj *faultInjector) check(d *Disk, op string, idx int64) {
	plan := &inj.plan
	if plan.CancelAt > 0 && !inj.cancelFired && idx+1 >= plan.CancelAt {
		inj.cancelFired = true
		d.Cancel(nil)
		panic(d.Cancelled())
	}
	if plan.Phase != "" && d.phaseLabel() != plan.Phase {
		return
	}
	if plan.PermanentAt > 0 && !inj.permanent && idx+1 >= plan.PermanentAt {
		inj.permanent = true
		inj.stats.Permanent++
		panic(&FaultError{Op: op, Index: idx, Phase: d.phaseLabel()})
	}
}

const (
	opRead  = "read"
	opWrite = "write"
)

// Cancel marks the disk cancelled with the given cause; the next
// non-suspended charge panics with an error wrapping ErrCancelled, unwound by
// CatchAbort. The first cause wins; later calls are no-ops. Safe to call from
// any goroutine — the only cross-goroutine entry point of a Disk.
func (d *Disk) Cancel(cause error) {
	var err error
	switch {
	case cause == nil:
		err = ErrCancelled
	case errors.Is(cause, ErrCancelled):
		err = cause
	default:
		err = fmt.Errorf("%w: %w", ErrCancelled, cause)
	}
	d.cancelErr.CompareAndSwap(nil, &err)
}

// Cancelled returns the cancellation error marking this disk, or nil.
func (d *Disk) Cancelled() error {
	if p := d.cancelErr.Load(); p != nil {
		return *p
	}
	return nil
}

// WatchContext cancels the disk when ctx is done. It returns a stop
// function that releases the watcher; call it (e.g. via defer) once the run
// is over. The watcher goroutine exits on whichever of ctx.Done and stop
// comes first, so no goroutine outlives the run. A context that can never be
// done installs no watcher.
func (d *Disk) WatchContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			d.Cancel(context.Cause(ctx))
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// unwindSnap is the transient bookkeeping an abort handler restores: the
// abort panic unwinds the run from wherever the crossing charge happened, so
// phase labels, recorder and peak-watch stacks, suspension, and the memory
// accountant can all be mid-operation.
type unwindSnap struct {
	phase     string
	depth     int
	nrec      int
	npeaks    int
	mem       int
	suspended int
}

func (d *Disk) takeUnwind() unwindSnap {
	return unwindSnap{
		phase: d.phase, depth: d.phaseDepth,
		nrec: len(d.recorders), npeaks: len(d.memPeaks),
		mem: d.memInUse, suspended: d.suspended,
	}
}

func (d *Disk) restoreUnwind(s unwindSnap) {
	d.phase, d.phaseDepth = s.phase, s.depth
	d.recorders = d.recorders[:s.nrec]
	d.memPeaks = d.memPeaks[:s.npeaks]
	d.memInUse = s.mem
	d.suspended = s.suspended
}

// CatchAbort runs fn, converting every abort the charging path can throw into
// a clean return: a charge-budget abort becomes (true, nil) — same contract
// as CatchBudgetExceeded — while a permanent fault or a cancellation becomes
// (false, err) with the typed error (errors.As-able to *FaultError,
// errors.Is-able to ErrCancelled). In all three cases the disk's transient
// bookkeeping is restored to the state captured at the call and the charge
// budget is disarmed, so an aborted run can never leak an armed watermark, an
// open recorder, or a dangling peak watch into the caller's next run. Durable
// accounting (the I/O charged before the abort, the hi-water mark) is kept,
// exactly as with a budget abort. Unrecognized panics propagate unchanged.
func (d *Disk) CatchAbort(fn func() error) (pruned bool, err error) {
	s := d.takeUnwind()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, ok := r.(error)
		if !ok {
			panic(r)
		}
		var fe *FaultError
		switch {
		case errors.Is(e, ErrBudgetExceeded):
			pruned, err = true, nil
		case errors.Is(e, ErrCancelled), errors.As(e, &fe), IsDeviceFailure(e):
			pruned, err = false, e
		default:
			panic(r)
		}
		d.restoreUnwind(s)
		d.ClearChargeBudget()
	}()
	return false, fn()
}
