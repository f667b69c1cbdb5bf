// Device-level fault injection: the plan, telemetry, and typed failure
// taxonomy for faults injected below the backend seam — at the syscall layer
// of a real storage engine — as opposed to the model-level faults of fault.go,
// which fire on the charging path of the simulated accountant.
//
// The division of labour mirrors the two layers of the machine. fault.go
// decides faults per *charged block*, so the simulator proves the model
// recovers bit-identically; this file describes faults per *syscall* under a
// real engine (internal/extmem/faultbackend wraps the diskfile engine's
// device), so the same proof extends to the layer that actually moves bytes.
// The engine recovers transparently — bounded retry for transient errors,
// re-flushing the authoritative in-memory image to repair a torn frame — and
// every recovery action is billed to the DeviceFaultStats side channel, never
// the main Stats, keeping charged I/O figures bit-identical to the fault-free
// run. Failures the engine cannot absorb surface as the typed sentinels below,
// which CatchAbort unwinds into clean error returns.
package extmem

import (
	"errors"
	"fmt"
)

// ErrDevice is the sentinel wrapped by every unrecoverable device failure: a
// syscall that kept failing after the engine's bounded retries, or any
// operation attempted after the device was declared dead.
var ErrDevice = errors.New("extmem: permanent device failure")

// ErrNoSpace is the sentinel wrapped when the device runs out of space while
// growing the backing arena. Space exhaustion is never retried — repeating the
// allocation cannot help — so it aborts the run with a partial Result.
var ErrNoSpace = errors.New("extmem: device out of space")

// ErrCorruption is the sentinel wrapped when a device frame disagrees with the
// authoritative in-memory image and could not be repaired (or, with no fault
// device installed, as soon as the mismatch is detected — silent repair would
// mask a real engine bug).
var ErrCorruption = errors.New("extmem: device corruption")

// IsDeviceFailure reports whether err is any of the device-failure sentinels
// (ErrDevice, ErrNoSpace, ErrCorruption).
func IsDeviceFailure(err error) bool {
	return errors.Is(err, ErrDevice) || errors.Is(err, ErrNoSpace) || errors.Is(err, ErrCorruption)
}

// DeviceFaultPlan is a deterministic, seeded schedule of syscall-layer faults
// for a real storage engine. The zero value injects nothing. Faults are
// decided per device syscall, keyed on the fault device's own syscall index,
// so a given plan produces the same fault schedule for the same syscall
// sequence. Transient draws are burned per (operation, offset): an offset that
// faulted once never faults again, so the engine's bounded retry always
// terminates — mirroring the burned-index rule of FaultPlan.
type DeviceFaultPlan struct {
	// Seed keys the per-syscall fault hash.
	Seed int64
	// Rate is the per-syscall probability of a transient EIO on pread/pwrite,
	// in [0, 1]. The engine clears these by bounded retry with exponential
	// backoff, billed to the side channel.
	Rate float64
	// TornRate is the per-syscall probability that a pwrite is torn: the call
	// reports success but corrupts part of the written frame. The engine
	// detects the mismatch on the next verified read and repairs the frame
	// from the in-memory image.
	TornRate float64
	// NoSpaceAfter, if positive, injects ENOSPC once the backing arena would
	// grow beyond this many bytes.
	NoSpaceAfter int64
	// DeadAt, if positive, declares the device dead at syscall number DeadAt
	// (1 = the very first syscall): that syscall and every later one fails
	// permanently, modelling a pulled disk.
	DeadAt int64
	// MaxRetries caps the engine's inline retries per failed syscall before it
	// declares the device dead. Zero means DefaultMaxDeviceRetries.
	MaxRetries int
	// Degrade enables the degraded-mode fallback: when the device is declared
	// dead mid-run, the query is re-run from scratch on the counting
	// simulator instead of returning the ErrDevice abort.
	Degrade bool
}

// DefaultMaxDeviceRetries bounds the engine's inline retries per failed
// syscall. Rate-based transients are burned per (op, offset) and clear on the
// first retry; the bound exists so a genuinely stuck device (DeadAt, or real
// hardware) fails over to ErrDevice quickly.
const DefaultMaxDeviceRetries = 8

// Enabled reports whether the plan injects anything.
func (p DeviceFaultPlan) Enabled() bool {
	return p.Rate > 0 || p.TornRate > 0 || p.NoSpaceAfter > 0 || p.DeadAt > 0
}

// DeviceFaultStats is the side-channel accounting of injected device faults
// and the engine's recovery work. Like FaultStats it never touches the main
// Stats: a run whose device faults were all absorbed keeps charged I/O
// bit-identical to the fault-free run, while the recovery cost stays reported.
// The injection counters are incremented by the fault device, the recovery
// counters by the engine.
type DeviceFaultStats struct {
	// InjectedReads and InjectedWrites count transient EIOs injected on
	// pread/pwrite syscalls.
	InjectedReads  int64
	InjectedWrites int64
	// TornWrites counts pwrites that reported success but corrupted the frame.
	TornWrites int64
	// NoSpace counts injected ENOSPC failures on arena growth.
	NoSpace int64
	// Retries counts syscalls the engine re-issued after a transient failure;
	// RetriedReads/RetriedWrites split them by direction.
	Retries       int64
	RetriedReads  int64
	RetriedWrites int64
	// BackoffIOs totals the simulated exponential-backoff cost charged per
	// retry (2^(attempt-1) block-times, capped), mirroring FaultStats.
	BackoffIOs int64
	// Repairs counts torn frames rebuilt from the authoritative in-memory
	// image and re-flushed.
	Repairs int64
	// DeviceDead is 1 once the device has been declared dead (retries
	// exhausted, or the DeadAt trigger fired).
	DeviceDead int64
	// Degraded is 1 when the run's results came from the degraded-mode
	// fallback re-run on the counting simulator.
	Degraded int64
}

// Any reports whether any device-fault activity was recorded.
func (s DeviceFaultStats) Any() bool { return s != DeviceFaultStats{} }

// Add returns the component-wise sum (DeviceDead and Degraded saturate at 1:
// they are flags, not counters).
func (s DeviceFaultStats) Add(o DeviceFaultStats) DeviceFaultStats {
	s.InjectedReads += o.InjectedReads
	s.InjectedWrites += o.InjectedWrites
	s.TornWrites += o.TornWrites
	s.NoSpace += o.NoSpace
	s.Retries += o.Retries
	s.RetriedReads += o.RetriedReads
	s.RetriedWrites += o.RetriedWrites
	s.BackoffIOs += o.BackoffIOs
	s.Repairs += o.Repairs
	if s.DeviceDead < o.DeviceDead {
		s.DeviceDead = o.DeviceDead
	}
	if s.Degraded < o.Degraded {
		s.Degraded = o.Degraded
	}
	return s
}

func (s DeviceFaultStats) String() string {
	return fmt.Sprintf("injectedReads=%d injectedWrites=%d torn=%d noSpace=%d retries=%d retriedReads=%d retriedWrites=%d backoffIOs=%d repairs=%d dead=%d degraded=%d",
		s.InjectedReads, s.InjectedWrites, s.TornWrites, s.NoSpace,
		s.Retries, s.RetriedReads, s.RetriedWrites, s.BackoffIOs,
		s.Repairs, s.DeviceDead, s.Degraded)
}

// DeviceFaultReporter is the optional backend interface through which the disk
// collects device-fault telemetry. A backend that injects or recovers from
// device faults (internal/extmem/faultbackend) implements it; FaultStats fills
// its Device field from here at read time.
type DeviceFaultReporter interface {
	DeviceFaultStats() DeviceFaultStats
}

// DeviceFaultStats returns the device-fault telemetry of the attached backend,
// or zeros when the backend does not inject faults.
func (d *Disk) DeviceFaultStats() DeviceFaultStats {
	if r, ok := d.backend.(DeviceFaultReporter); ok {
		return r.DeviceFaultStats()
	}
	return DeviceFaultStats{}
}
