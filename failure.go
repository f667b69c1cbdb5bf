package acyclicjoin

// Failure model of the public API. Aborts inside the engine travel as panics
// (the extmem charge hooks panic on cancellation, permanent faults, and
// budget watermarks); internal/core converts the ones it owns into errors at
// operator and strategy boundaries, and this file is the last line: every
// abort that reaches the public surface is classified into one of the typed
// sentinels below, never a panic.

import (
	"errors"
	"fmt"

	"acyclicjoin/internal/extmem"
)

// FaultPlan is a deterministic, seeded schedule of injected I/O faults,
// on charged blocks or under the file backend's syscalls; attach one via
// Options.Faults. See extmem.FaultPlan for field semantics.
type FaultPlan = extmem.FaultPlan

// FaultLayer selects where a FaultPlan injects.
type FaultLayer = extmem.FaultLayer

// Fault layers; see extmem.FaultLayer.
const (
	// LayerModel (the zero value) injects per charged block I/O.
	LayerModel = extmem.LayerModel
	// LayerDevice injects per syscall under the file backend's engine.
	LayerDevice = extmem.LayerDevice
)

// FaultStats is the recovery ledger of an injected FaultPlan, reported on
// Result.Faults. Retry and repair work is tracked here, never on the main
// Stats — a run whose faults were all absorbed reports Stats bit-identical
// to the fault-free run.
type FaultStats = extmem.FaultStats

// FaultError is the typed error carried by ErrFault-classified failures; it
// records the faulted operation, its I/O index, and the phase.
type FaultError = extmem.FaultError

// Typed failure sentinels. Errors returned by RunContext satisfy
// errors.Is against exactly one of these when the run was aborted:
//
//   - ErrCancelled: the context was cancelled (or a FaultPlan.CancelAt
//     trigger fired); the wrapped chain carries the cancellation cause.
//   - ErrFault: a permanent injected model-layer I/O fault (transients are
//     always retried); errors.As yields the *FaultError.
//   - ErrBudget: a charge-budget watermark escaped its catcher — an
//     internal invariant violation surfaced instead of hidden.
//   - ErrDevice: the file backend's device failed permanently (a syscall
//     kept failing after the engine's bounded retries).
//   - ErrNoSpace: the file backend's device ran out of space growing the
//     backing arena.
//   - ErrCorruption: a device frame disagreed with the authoritative
//     in-memory image and could not be repaired.
//   - ErrInternal: an unclassified panic crossed the public boundary.
//
// Validation errors (malformed queries, bad configuration) are returned
// as-is and match none of the sentinels.
var (
	ErrCancelled  = extmem.ErrCancelled
	ErrBudget     = extmem.ErrBudgetExceeded
	ErrFault      = errors.New("acyclicjoin: permanent I/O fault")
	ErrDevice     = extmem.ErrDevice
	ErrNoSpace    = extmem.ErrNoSpace
	ErrCorruption = extmem.ErrCorruption
	ErrInternal   = errors.New("acyclicjoin: internal error")
)

// classifyErr maps an error returned by the engine onto the public
// sentinels. Fault errors gain the ErrFault sentinel; cancellation and
// budget errors already carry theirs (the sentinels are the extmem values);
// anything else passes through untouched.
func classifyErr(err error) error {
	var fe *extmem.FaultError
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrFault):
		return err
	case errors.As(err, &fe):
		return fmt.Errorf("%w: %w", ErrFault, err)
	default:
		return err
	}
}

// classifyAbort maps a recovered panic value onto the public sentinels. A
// panic that is not a recognised abort is an engine bug: it is wrapped in
// ErrInternal rather than re-thrown, so the public API never panics.
func classifyAbort(v any) error {
	err, ok := v.(error)
	if !ok {
		return fmt.Errorf("%w: panic: %v", ErrInternal, v)
	}
	c := classifyErr(err)
	if isAbortErr(c) {
		return c
	}
	return fmt.Errorf("%w: panic: %w", ErrInternal, err)
}

// isAbortErr reports whether err carries one of the abort sentinels.
func isAbortErr(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, ErrFault) ||
		errors.Is(err, ErrBudget) || extmem.IsDeviceFailure(err)
}

// partialResult assembles the telemetry-only Result returned alongside an
// abort error: rows emitted before the abort, every I/O charged so far
// (dry-run branches included — there is no winning branch to separate), and
// the fault ledger.
func partialResult(d *extmem.Disk, count int64, faults FaultStats) *Result {
	s := fromExtmem(d.Stats())
	return &Result{Count: count, Stats: s, PlanningStats: s, Faults: faults,
		Backend: d.BackendName(), Transfers: d.Transfers(), Device: d.DeviceStats()}
}

// abortResult routes an engine error to the caller: aborts pair a typed
// error with a partial Result, ordinary errors return nil as before.
func abortResult(partial func() *Result, err error) (*Result, error) {
	c := classifyErr(err)
	if isAbortErr(c) {
		return partial(), c
	}
	return nil, c
}
