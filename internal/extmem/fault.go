// Fault injection, cancellation, and abort unwinding for the simulated disk.
//
// The failure model mirrors the charge-budget watermark machinery: faults are
// decided on the charging path, keyed on the disk's accumulated I/O index, so
// a given FaultPlan produces a deterministic fault schedule for a given charge
// sequence. Three failure classes exist:
//
//   - Transient faults: a block transfer fails but the device (or the
//     enclosing operator boundary) retries it. Retried work is rolled back
//     from the main accountant and charged to the side-channel FaultStats
//     instead, so a run in which every fault is transient-and-retried keeps
//     Stats bit-identical to the fault-free run while the retry cost stays
//     visible and honest.
//   - Permanent faults: a block transfer fails unrecoverably (either injected
//     directly via FaultPlan.PermanentAt, or by a transient fault escalating
//     after MaxAttempts boundary retries). The typed *FaultError unwinds the
//     run; CatchAbort converts it into an error return.
//   - Cancellation: Cancel (usually driven by WatchContext observing a
//     context.Context) marks the disk; its next non-suspended charge panics
//     with an error wrapping ErrCancelled, which CatchAbort likewise converts
//     into an error return.
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

// FaultKind classifies an injected I/O fault.
type FaultKind int

const (
	// FaultTransient marks a fault that a retry can clear.
	FaultTransient FaultKind = iota
	// FaultPermanent marks an unrecoverable fault (injected directly, or a
	// transient fault escalated after exhausting its retry budget).
	FaultPermanent
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultError is the typed error thrown (as a panic) by the charging path when
// an injected fault fires. Transient faults are caught and retried by the
// innermost operator boundary; permanent faults unwind to CatchAbort.
type FaultError struct {
	// Kind says whether a retry can clear the fault.
	Kind FaultKind
	// Op is the failed transfer's direction: "read" or "write".
	Op string
	// Index is the disk's accumulated I/O count when the fault fired — the
	// zero-based index of the failed block transfer.
	Index int64
	// Phase is the phase label the transfer was charged under.
	Phase string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("extmem: injected %s %s fault at I/O %d (phase %q)", e.Kind, e.Op, e.Index, e.Phase)
}

// DefaultMaxFaultAttempts bounds how often an operator boundary retries before
// escalating a transient fault to permanent.
const DefaultMaxFaultAttempts = 64

// FaultPlan is a deterministic, seeded fault schedule. The zero value injects
// nothing. Faults are decided per block charge, keyed on the disk's
// accumulated I/O index, so the schedule is a pure function of the plan and
// the charge sequence — the same run faults the same way every time.
type FaultPlan struct {
	// Seed keys the transient-fault hash.
	Seed int64
	// TransientRate is the per-block-charge probability of a transient fault,
	// in [0, 1]. Each I/O index draws independently (and at most once: a
	// retried index never faults again, so retries always terminate).
	TransientRate float64
	// PermanentAt, if positive, injects one permanent fault at the first
	// charge that would be I/O number PermanentAt (1 = the very first charge).
	PermanentAt int64
	// CancelAt, if positive, cancels the disk at the first charge that would
	// be I/O number CancelAt — a deterministic stand-in for an external
	// context cancellation arriving mid-run.
	CancelAt int64
	// Phase, if non-empty, restricts transient and permanent injection to
	// charges carrying that phase label.
	Phase string
	// MaxAttempts caps operator-boundary retries per operator run before a
	// transient fault escalates to permanent. Zero means
	// DefaultMaxFaultAttempts.
	MaxAttempts int
}

// Enabled reports whether the plan injects or cancels anything.
func (p FaultPlan) Enabled() bool {
	return p.TransientRate > 0 || p.PermanentAt > 0 || p.CancelAt > 0
}

// FaultStats is the side-channel accounting of injected faults and retries.
// Retry I/O never touches the main Stats — that is what keeps a fully
// transient-and-retried run bit-identical to the fault-free run — but it is
// charged here, so the full cost of failure recovery stays reported.
type FaultStats struct {
	// Transient and Permanent count injected faults by kind (Permanent counts
	// direct injections, not escalations).
	Transient int64
	Permanent int64
	// Retries counts device-level inline retries: transient faults outside
	// any operator boundary, cleared by re-issuing the single failed
	// transfer.
	Retries int64
	// BoundaryRetries counts operator-boundary retries: transient faults
	// inside an operator boundary, cleared by rolling the operator back and
	// re-running it.
	BoundaryRetries int64
	// Escalated counts transient faults promoted to permanent after
	// MaxAttempts boundary retries.
	Escalated int64
	// RetryReads and RetryWrites total the block transfers discarded and
	// re-issued by retries (the honest I/O cost of recovery).
	RetryReads  int64
	RetryWrites int64
	// BackoffIOs totals the simulated exponential-backoff cost charged per
	// boundary retry (2^(attempt-1) block-times per retry, capped).
	BackoffIOs int64
	// Device is the syscall-layer fault telemetry of the storage engine (see
	// DeviceFaultStats). Filled at read time from the backend by FaultStats —
	// the counters are engine-global, so they are never stored per-disk.
	Device DeviceFaultStats
}

// Any reports whether any fault activity was recorded.
func (s FaultStats) Any() bool { return s != FaultStats{} }

func (s FaultStats) String() string {
	out := fmt.Sprintf("transient=%d permanent=%d retries=%d boundaryRetries=%d escalated=%d retryReads=%d retryWrites=%d backoffIOs=%d",
		s.Transient, s.Permanent, s.Retries, s.BoundaryRetries, s.Escalated, s.RetryReads, s.RetryWrites, s.BackoffIOs)
	if s.Device.Any() {
		out += " device{" + s.Device.String() + "}"
	}
	return out
}

// faultInjector holds one disk's fault-injection state. Like the rest of the
// Disk it is goroutine-confined.
type faultInjector struct {
	plan        faultPlanCompiled
	fired       map[int64]bool // transient indexes already faulted (burned)
	permanent   bool           // the PermanentAt fault already fired
	cancelFired bool           // the CancelAt trigger already fired
	stats       FaultStats
}

// faultPlanCompiled is a FaultPlan with defaults resolved.
type faultPlanCompiled struct {
	FaultPlan
	maxAttempts int
}

func newFaultInjector(p FaultPlan) *faultInjector {
	c := faultPlanCompiled{FaultPlan: p, maxAttempts: p.MaxAttempts}
	if c.maxAttempts <= 0 {
		c.maxAttempts = DefaultMaxFaultAttempts
	}
	return &faultInjector{plan: c, fired: map[int64]bool{}}
}

// SetFaultPlan arms (or, with nil or a disabled plan, disarms) fault
// injection on d. Arming resets any previous injector state and telemetry,
// and clears the cancellation latch — changing the plan starts a new fault
// experiment, so an abort a previous plan triggered (a CancelAt firing, or
// an external Cancel) must not poison the next run on the same disk.
func (d *Disk) SetFaultPlan(p *FaultPlan) {
	d.cancelErr.Store(nil)
	if p == nil || !p.Enabled() {
		d.faults = nil
		return
	}
	d.faults = newFaultInjector(*p)
}

// FaultStats returns the fault/retry telemetry accumulated on d: the armed
// injector's counters plus, with a fault-injecting backend, the device-fault
// telemetry.
func (d *Disk) FaultStats() FaultStats {
	var s FaultStats
	if d.faults != nil {
		s = d.faults.stats
	}
	s.Device = d.DeviceFaultStats()
	return s
}

// faultHash is a splitmix64-style mix of (seed, index) onto 64 bits; the top
// 53 bits make the uniform [0,1) draw for the transient-rate test.
func faultHash(seed, idx int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
		panic(&FaultError{Kind: FaultPermanent, Op: op, Index: idx, Phase: d.phaseLabel()})
	}
	if plan.TransientRate <= 0 || inj.fired[idx] {
		return
	}
	if float64(faultHash(plan.Seed, idx)>>11)/(1<<53) >= plan.TransientRate {
		return
	}
	// The draw fires. Burn the index so the retry of this same transfer
	// passes: within one operator boundary successive attempts can only fault
	// at strictly increasing indexes, so retries always terminate.
	inj.fired[idx] = true
	inj.stats.Transient++
	if d.opBoundary > 0 {
		panic(&FaultError{Kind: FaultTransient, Op: op, Index: idx, Phase: d.phaseLabel()})
	}
	// Outside any operator boundary the simulated device clears the fault
	// inline by re-issuing the single failed transfer: the charge proceeds
	// unchanged (no unwind, so emission-producing scans are never re-run) and
	// the redone transfer is billed to the retry side-channel.
	inj.stats.Retries++
	if op == opWrite {
		inj.stats.RetryWrites++
	} else {
		inj.stats.RetryReads++
	}
}

const (
	opRead  = "read"
	opWrite = "write"
)

// opSnapshot captures the disk state an operator-boundary retry must restore:
// the full accountant (counters, hi-water, phase breakdown), the memory
// accountant, the phase stack position, and the interior state of every
// recorder and peak watch that was already open when the boundary started.
type opSnapshot struct {
	stats      Stats
	xfer       XferStats
	memInUse   int
	phase      string
	phaseDepth int
	suspended  int
	phaseStats map[string]Stats
	peaks      []int
	recs       []recSnap
	faultSet   bool // d.faults was non-nil (sanity: plans are not swapped mid-boundary)
}

// recSnap pins one open tape recorder's interior: rolling back truncates the
// segments grown during the attempt and un-merges charges folded into the
// segment that was last at snapshot time.
type recSnap struct {
	nsegs int
	last  TapeSegment
	peak  int
}

func (d *Disk) snapshotOp() opSnapshot {
	s := opSnapshot{
		stats:      d.stats,
		xfer:       d.xfer,
		memInUse:   d.memInUse,
		phase:      d.phase,
		phaseDepth: d.phaseDepth,
		suspended:  d.suspended,
		faultSet:   d.faults != nil,
	}
	if d.phaseStats != nil {
		s.phaseStats = make(map[string]Stats, len(d.phaseStats))
		for k, v := range d.phaseStats {
			s.phaseStats[k] = v
		}
	}
	if n := len(d.memPeaks); n > 0 {
		s.peaks = make([]int, n)
		for i, p := range d.memPeaks {
			s.peaks[i] = *p
		}
	}
	if n := len(d.recorders); n > 0 {
		s.recs = make([]recSnap, n)
		for i, r := range d.recorders {
			rs := recSnap{nsegs: len(r.segs), peak: r.peak}
			if rs.nsegs > 0 {
				rs.last = r.segs[rs.nsegs-1]
			}
			s.recs[i] = rs
		}
	}
	return s
}

// restoreOp rewinds the disk to a snapshot taken on the same goroutine. The
// snapshot's maps/slices are value copies, so restoring repeatedly (one
// rollback per failed attempt) is safe.
func (d *Disk) restoreOp(s opSnapshot) {
	d.stats = s.stats
	d.xfer = s.xfer
	d.memInUse = s.memInUse
	d.phase = s.phase
	d.phaseDepth = s.phaseDepth
	d.suspended = s.suspended
	if s.phaseStats == nil {
		if d.phaseStats != nil {
			// Phases were enabled mid-attempt; drop the partial breakdown.
			d.phaseStats = nil
		}
	} else {
		m := make(map[string]Stats, len(s.phaseStats))
		for k, v := range s.phaseStats {
			m[k] = v
		}
		d.phaseStats = m
	}
	d.memPeaks = d.memPeaks[:len(s.peaks)]
	for i := range s.peaks {
		*d.memPeaks[i] = s.peaks[i]
	}
	d.recorders = d.recorders[:len(s.recs)]
	for i, rs := range s.recs {
		r := d.recorders[i]
		r.segs = r.segs[:rs.nsegs]
		if rs.nsegs > 0 {
			r.segs[rs.nsegs-1] = rs.last
		}
		r.peak = rs.peak
	}
}

// OperatorBoundary runs one deterministic, re-runnable operator under the
// transient-fault retry protocol. If a transient fault fires inside fn, the
// whole attempt is rolled back — counters, phase breakdown, hi-water, open
// recorders and peak watches all rewound to the boundary entry — the
// discarded I/O and an exponential backoff are billed to FaultStats, and fn
// is re-run. After MaxAttempts failed attempts the fault escalates to a
// permanent *FaultError panic.
//
// fn must be safe to re-run from the boundary state: it must not emit results
// or mutate files that existed before the boundary (the memoized operator
// bodies — sorts, semijoins, projections, materializations — all qualify:
// they read frozen inputs and build fresh output files). Emission-producing
// paths must stay outside any boundary; transient faults there are cleared by
// the device-level inline retry instead. Boundaries nest; the innermost one
// catches the fault. Permanent faults, cancellation, and budget aborts pass
// through untouched.
//
// When no fault plan is armed (the common case), OperatorBoundary is a plain
// call of fn.
func (d *Disk) OperatorBoundary(fn func() error) error {
	inj := d.faults
	if inj == nil || inj.plan.TransientRate <= 0 {
		return fn()
	}
	snap := d.snapshotOp()
	for attempt := 1; ; attempt++ {
		fault, err := d.tryOp(fn)
		if fault == nil {
			return err
		}
		inj.stats.BoundaryRetries++
		inj.stats.RetryReads += d.stats.Reads - snap.stats.Reads
		inj.stats.RetryWrites += d.stats.Writes - snap.stats.Writes
		inj.stats.BackoffIOs += int64(1) << uint(min(attempt-1, 20))
		d.restoreOp(snap)
		if attempt >= inj.plan.maxAttempts {
			inj.stats.Escalated++
			panic(&FaultError{Kind: FaultPermanent, Op: fault.Op, Index: fault.Index, Phase: fault.Phase})
		}
	}
}

// tryOp runs one boundary attempt, converting a transient *FaultError panic
// into a return value. Everything else propagates.
func (d *Disk) tryOp(fn func() error) (fault *FaultError, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fe, ok := r.(*FaultError)
		if !ok || fe.Kind != FaultTransient {
			panic(r)
		}
		fault = fe
	}()
	d.opBoundary++
	defer func() { d.opBoundary-- }()
	return nil, fn()
}

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
