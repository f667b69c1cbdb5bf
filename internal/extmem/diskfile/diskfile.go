// Package diskfile implements the os.File-backed storage engine behind the
// extmem Backend seam. The simulated machine's in-memory image stays
// authoritative; the engine mirrors it onto a real file, frame by frame, so
// that every performed block transfer is physically executed and every
// performed read is byte-verified against the device — a standing torn-block
// check that turns any divergence between the model and the device into a
// panic at the exact transfer that broke. A charge the operator memo
// replays, and a scan a planning-only dry run bills unread (Reader.Bill),
// performs no transfer and reaches no device (see extmem.XferStats).
//
// Layout: each physical file is a sequence of frames of B tuples (B*slot
// cells, 8 bytes per cell), allocated frame-at-a-time from a free list inside
// one backing os.File.
//
// Every performed transfer is one syscall. A performed write pwrites its
// window at the operation that charged it, one pwrite per offset-contiguous
// run of frames; a performed read preads exactly its frame and compares the
// device bytes with the image. The engine holds no tuple contents — no block
// cache, no write buffer, no read-ahead — so the model's M words are the only
// memory. The only syscalls that no performed transfer maps to are the
// unbilled writes of free-path loading, backfills of frames that have no
// device copy yet, and repair rewrites under a fault plan.
//
// Device I/O is synchronous: every pread and pwrite executes inline, under
// the engine mutex, at the charged operation that needs it, so every
// DeviceStats counter is a pure function of the charged schedule, and a failed
// syscall surfaces at the charged operation that issued it. The engine starts
// no goroutines.
//
// A device-layer extmem.FaultPlan (SetFaultPlan) interposes a fault device
// under every engine syscall; see fault.go.
package diskfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"syscall"

	"acyclicjoin/internal/extmem"
)

// device is the raw syscall surface beneath the engine: positioned reads and
// writes against the backing storage. It is the backing os.File itself
// unless SetFaultPlan interposed a fault device. The engine issues every call
// under its own mutex.
type device interface {
	io.ReaderAt
	io.WriterAt
}

// Engine is an extmem.Backend that mirrors the simulated disk onto one
// backing os.File. It is safe for concurrent use: all engine state — and
// every device syscall — is guarded by one mutex, so telemetry can be read
// from another goroutine than the charging one.
type Engine struct {
	mu     sync.Mutex
	cfg    extmem.Config
	f      *os.File
	dev    device // syscall surface; e.f unless SetFaultPlan interposed
	path   string // retained file path; "" when unlinked at creation
	closed bool

	// Device-fault state. maxRetries bounds the inline retry loop per failed
	// syscall. repairs counts consecutive repairs per frame; it is non-nil
	// only when a fault device is interposed, which is what arms torn-frame
	// repair — with the real device, a verify mismatch is an engine bug and
	// must surface as ErrCorruption, not be papered over. dead latches a
	// device declared permanently failed; ioErr latches the first failed
	// syscall, which every later charged operation re-raises.
	maxRetries int
	repairs    map[frameKey]int
	dead       bool
	ioErr      error
	faults     extmem.FaultStats // injection and recovery ledger

	nextPhys uint64
	files    map[uint64]*pfile
	lastPhys uint64 // one-entry pfileOf memo: charged ops cluster per file
	lastPf   *pfile
	free     map[int64][]int64 // allocation size -> reusable device offsets
	devEnd   int64             // bump allocator high-water mark
	buf      []byte            // staging for the syscall in flight

	stats extmem.DeviceStats
}

// pfile is the device-side state of one physical file.
type pfile struct {
	frameCells int // capacity of one frame in cells: B * cells per tuple
	frameBytes int64
	offs       []int64 // device offset per frame index; -1 = not allocated
	devCells   []int   // cells present on the device per frame
}

type frameKey struct {
	phys uint64
	idx  int
}

// Open creates a file-backed engine for the given machine configuration. The
// backing file is created under dir; an empty dir means the system temp
// directory with the file unlinked immediately (it exists only as an open
// descriptor and can never be leaked on disk). A non-empty dir retains the
// file until Close. A finalizer backstops Close so an abandoned engine cannot
// leak the descriptor.
func Open(dir string, cfg extmem.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	unlink := dir == ""
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "acyclicjoin-disk-*.dat")
	if err != nil {
		return nil, fmt.Errorf("diskfile: create backing file: %w", err)
	}
	e := &Engine{
		cfg:        cfg,
		f:          f,
		dev:        f,
		path:       f.Name(),
		nextPhys:   1,
		files:      map[uint64]*pfile{},
		free:       map[int64][]int64{},
		maxRetries: extmem.DefaultMaxDeviceAttempts,
	}
	if unlink {
		// Anonymous mode: the name disappears now; the descriptor keeps the
		// storage alive until Close.
		if err := os.Remove(e.path); err != nil {
			f.Close()
			return nil, fmt.Errorf("diskfile: unlink backing file: %w", err)
		}
		e.path = ""
	}
	runtime.SetFinalizer(e, (*Engine).Close)
	return e, nil
}

// Name implements extmem.Backend.
func (e *Engine) Name() string { return "file" }

// Path returns the backing file's path, or "" when it was unlinked at
// creation (anonymous mode).
func (e *Engine) Path() string { return e.path }

// CreateFile implements extmem.Backend.
func (e *Engine) CreateFile(arity int) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := arity
	if slot == 0 {
		slot = 1 // arity 0 stores one sentinel cell per tuple
	}
	phys := e.nextPhys
	e.nextPhys++
	cells := e.cfg.B * slot
	e.files[phys] = &pfile{frameCells: cells, frameBytes: int64(cells) * 8}
	return phys
}

func (e *Engine) pfileOf(phys uint64) *pfile {
	if phys == e.lastPhys && e.lastPf != nil {
		return e.lastPf
	}
	pf, ok := e.files[phys]
	if !ok {
		panic(fmt.Sprintf("diskfile: unknown physical file %d", phys))
	}
	e.lastPhys, e.lastPf = phys, pf
	return pf
}

// latchErr records the first failed syscall. The failing charged operation
// panics with it; every later charged operation re-raises it (checkErr), and
// Flush/Close — where a panic has no catcher — return it.
func (e *Engine) latchErr(err error) {
	if e.ioErr == nil {
		e.ioErr = err
	}
}

// checkErr surfaces a latched failure on the calling charged operation. The
// panic value is the typed error itself (wrapping ErrDevice, ErrNoSpace, or
// ErrCorruption), so the abort unwinds through extmem.CatchAbort into a clean
// error return.
func (e *Engine) checkErr() {
	if e.ioErr != nil {
		panic(e.ioErr)
	}
}

// devReadAt preads into buf at off, retrying transient failures up to
// maxRetries times with exponential backoff; the retries and backoff are
// billed to the fault ledger. ENOSPC is never retried (it cannot apply
// to reads, but classification is shared with writes); exhausted retries
// latch the device dead and classify as ErrDevice.
func (e *Engine) devReadAt(buf []byte, off int64) error {
	return e.devCall(opRead, off, len(buf), func() error {
		_, err := e.dev.ReadAt(buf, off)
		return err
	})
}

// devWriteAt pwrites buf at off under the same retry protocol as devReadAt.
func (e *Engine) devWriteAt(buf []byte, off int64) error {
	return e.devCall(opWrite, off, len(buf), func() error {
		_, err := e.dev.WriteAt(buf, off)
		return err
	})
}

const (
	opRead  = "pread"
	opWrite = "pwrite"
)

func (e *Engine) devCall(op string, off int64, n int, call func() error) error {
	if e.dead {
		return fmt.Errorf("diskfile: %s %d bytes at %d: device declared dead: %w", op, n, off, extmem.ErrDevice)
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = call(); err == nil {
			return nil
		}
		if isNoSpace(err) {
			return fmt.Errorf("diskfile: %s %d bytes at %d: %w (%v)", op, n, off, extmem.ErrNoSpace, err)
		}
		if attempt >= e.maxRetries {
			break
		}
		e.faults.Retries++
		if op == opWrite {
			e.faults.RetryWrites++
		} else {
			e.faults.RetryReads++
		}
		e.faults.BackoffIOs += int64(1) << uint(min(attempt, 20))
	}
	e.dead = true
	e.faults.Permanent = 1
	return fmt.Errorf("diskfile: %s %d bytes at %d: retries exhausted: %w (%v)", op, n, off, extmem.ErrDevice, err)
}

// isNoSpace recognizes space exhaustion: the real syscall error, or an
// injected error wrapping the extmem sentinel.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, extmem.ErrNoSpace)
}

// WriteRange implements extmem.Backend: cells become the contents of tuples
// [off, off+n) of phys, on the device before WriteRange returns. off is
// frame-aligned and windows only ever grow a file, so every touched frame is
// overwritten from its first cell and no read-modify-write is needed.
func (e *Engine) WriteRange(phys uint64, off int, cells []int64, billed bool) {
	if len(cells) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureOpen()
	e.checkErr()
	if billed {
		e.stats.BilledWrites++
	} else {
		e.stats.UnbilledWrites++
	}
	e.writeFrames(e.pfileOf(phys), off/e.cfg.B, cells)
}

// ReadRange implements extmem.Backend: pread the frame holding tuples
// [off, off+n) of phys and byte-verify it against want. A frame with no
// device copy, or only a shorter prefix of want, is written from the image.
func (e *Engine) ReadRange(phys uint64, off int, want []int64) {
	if len(want) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureOpen()
	e.checkErr()
	e.stats.BilledReads++
	pf := e.pfileOf(phys)
	k := off / e.cfg.B
	if k >= len(pf.offs) || pf.offs[k] < 0 || pf.devCells[k] == 0 {
		// No device copy (a clone that diverged from its original before
		// this frame was ever written): the image is the only source.
		e.stats.BackfillServes++
		e.stats.Backfills++
		e.writeFrames(pf, k, want)
		return
	}
	n := min(pf.devCells[k], len(want))
	if cap(e.buf) < n*8 {
		e.buf = make([]byte, n*8)
	}
	buf := e.buf[:n*8]
	e.stats.ReadCalls++
	e.stats.BlockReads++
	if err := e.devReadAt(buf, pf.offs[k]); err != nil {
		e.latchErr(err)
		panic(err)
	}
	e.stats.VerifiedCells += int64(n)
	for i := range n {
		if got := int64(binary.LittleEndian.Uint64(buf[i*8:])); got != want[i] {
			e.repairFrame(pf, frameKey{phys, k}, want, i, got)
			return
		}
	}
	if len(e.repairs) > 0 {
		delete(e.repairs, frameKey{phys, k}) // clean verify resets the consecutive count
	}
	if n < len(want) {
		// The device copy is a stale prefix (the image grew past the last
		// written window, e.g. a writer's buffered tail): extend from the
		// image.
		e.stats.Backfills++
		e.writeFrames(pf, k, want)
	}
}

// maxFrameRepairs bounds consecutive repairs of one frame: a frame the device
// keeps tearing faster than the engine can rewrite it is declared corrupt.
const maxFrameRepairs = 4

// repairFrame handles a verify mismatch at cell i of frame key. With a fault
// device installed, the image window — authoritative by construction — is
// rewritten over the frame at once. Repairs are bounded per frame; past the
// bound, or with the real device underneath (where a mismatch means an engine
// bug, never an injected torn write), the mismatch panics with a typed error
// wrapping ErrCorruption.
func (e *Engine) repairFrame(pf *pfile, key frameKey, want []int64, i int, got int64) {
	err := fmt.Errorf("diskfile: %w: phys %d frame %d cell %d: device has %d, image has %d",
		extmem.ErrCorruption, key.phys, key.idx, i, got, want[i])
	if e.repairs == nil {
		panic(err)
	}
	if e.repairs[key]++; e.repairs[key] > maxFrameRepairs {
		panic(fmt.Errorf("%w (repaired %d times, giving up)", err, maxFrameRepairs))
	}
	e.faults.Repairs++
	e.writeFrames(pf, key.idx, want)
}

// writeFrames lands cells as the contents of frames k, k+1, ... of pf. It
// gives each frame a device offset in frame order and issues one pwrite per
// offset-contiguous run. A failed pwrite is latched and panics at the charged
// operation.
func (e *Engine) writeFrames(pf *pfile, k int, cells []int64) {
	for len(cells) > 0 {
		e.ensureAlloc(pf, k)
		runOff := pf.offs[k]
		buf := e.buf[:0]
		frames := 0
		for len(cells) > 0 {
			if frames > 0 {
				e.ensureAlloc(pf, k)
				if pf.offs[k] != runOff+int64(frames)*pf.frameBytes {
					break
				}
			}
			n := min(len(cells), pf.frameCells)
			for _, c := range cells[:n] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
			pf.devCells[k] = n
			cells = cells[n:]
			k++
			frames++
		}
		e.buf = buf
		e.stats.WriteCalls++
		e.stats.BlockWrites += int64(frames)
		if err := e.devWriteAt(buf, runOff); err != nil {
			e.latchErr(err)
			panic(err)
		}
	}
}

// ensureAlloc gives frame k of pf a device offset, reusing freed frames of
// the same size class before growing the file.
func (e *Engine) ensureAlloc(pf *pfile, k int) {
	for len(pf.offs) <= k {
		pf.offs = append(pf.offs, -1)
		pf.devCells = append(pf.devCells, 0)
	}
	if pf.offs[k] >= 0 {
		return
	}
	if fl := e.free[pf.frameBytes]; len(fl) > 0 {
		pf.offs[k] = fl[len(fl)-1]
		e.free[pf.frameBytes] = fl[:len(fl)-1]
		return
	}
	pf.offs[k] = e.devEnd
	e.devEnd += pf.frameBytes
}

// Truncate implements extmem.Backend: return every device frame of phys to
// the free list.
func (e *Engine) Truncate(phys uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkErr()
	pf := e.pfileOf(phys)
	for _, off := range pf.offs {
		if off >= 0 {
			e.free[pf.frameBytes] = append(e.free[pf.frameBytes], off)
		}
	}
	pf.offs = pf.offs[:0]
	pf.devCells = pf.devCells[:0]
}

// Flush implements extmem.Backend. Every write reached the device at its own
// charged operation, so nothing is buffered; Flush returns the latched
// syscall failure, if any.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ioErr
}

// Close implements extmem.Backend: release the descriptor and remove a
// retained backing file. A latched syscall failure is returned. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.ioErr
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	if e.path != "" {
		if rmErr := os.Remove(e.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// DeviceStats implements extmem.Backend.
func (e *Engine) DeviceStats() extmem.DeviceStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Engine) ensureOpen() {
	if e.closed {
		panic("diskfile: engine used after Close")
	}
}
