// Package diskfile implements the os.File-backed storage engine behind the
// extmem Backend seam. The simulated machine's in-memory image stays
// authoritative; the engine mirrors it onto a real file, frame by frame, so
// that every charged block transfer is physically executed and every charged
// read is byte-verified against the image — a standing torn-block check that
// turns any divergence between the model and the device into a panic at the
// exact transfer that broke.
//
// Layout: each physical file is a sequence of frames of B tuples (B*slot
// cells, 8 bytes per cell), allocated frame-at-a-time from a free list inside
// one backing os.File. Above the device sits an aligned block cache of M/B
// frames (LRU), a write batcher that coalesces contiguous dirty frames into
// single pwrites, and a read-ahead prefetcher for sequential scans. None of
// that machinery is visible to the model: charges and transfer parity are
// counted at the seam, and the cache only changes the syscall telemetry
// reported through DeviceStats.
//
// Device I/O is synchronous: every pread and pwrite executes inline, under
// the engine mutex, at the charged operation that needs it. Writeback forms
// coalesced segments in deterministic (phys, frame) allocation order, and
// read-ahead groups offset-contiguous frames into single preads, so every
// DeviceStats counter is a pure function of the charged schedule, and a failed
// syscall surfaces at the charged operation that issued it. The engine starts
// no goroutines.
//
// A device-layer extmem.FaultPlan (SetFaultPlan) interposes a fault device
// under every engine syscall; see fault.go.
package diskfile

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
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

	nextPhys  uint64
	files     map[uint64]*pfile
	lastPhys  uint64 // one-entry pfileOf memo: charged ops cluster per file
	lastPf    *pfile
	nFrames   int        // resident frames (cache occupancy; frames live in pfile.frames)
	frameFree []*frame   // evicted frame shells for reuse (cells capacity retained)
	lru       *list.List // front = most recently used; values are *frame
	dirty     map[frameKey]*frame
	free      map[int64][]int64 // allocation size -> reusable device offsets
	devEnd    int64             // bump allocator high-water mark

	capFrames   int // cache capacity: M/B frames, like the model's memory
	batchFrames int // dirty frames buffered before a coalescing flush
	readAhead   int // frames prefetched ahead of a sequential scan

	stats extmem.DeviceStats
}

// segPool recycles the byte staging buffers of writeback segments and group
// preads across engines.
var segPool sync.Pool

func getBuf(n int) []byte {
	if v := segPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putBuf(b []byte) { segPool.Put(&b) }

// pfile is the device-side state of one physical file.
type pfile struct {
	arity      int
	slot       int // cells per tuple (arity 0 stores one sentinel cell)
	frameCells int // capacity of one frame in cells (B * slot)
	frameBytes int64
	offs       []int64  // device offset per frame index; -1 = not allocated
	devCells   []int    // cells present on the device per frame
	frames     []*frame // cached frame per index (nil = not resident)
	lastSeq    int      // last demand-fetched frame (sequential-scan detector)
}

// frame returns the cached frame at index k, or nil. A slice index replaces
// the old global map[frameKey] lookup: the cache membership test runs on
// every charged operation, and on charge-dense workloads the map hashing was
// a measurable slice of the whole engine overhead.
func (pf *pfile) frame(k int) *frame {
	if k < len(pf.frames) {
		return pf.frames[k]
	}
	return nil
}

type frameKey struct {
	phys uint64
	idx  int
}

// frame is one cached block: the current contents of tuples
// [idx*B, (idx+1)*B) of its file, possibly ahead of the device copy (dirty).
// prefetched marks a frame brought in by read-ahead that no demand read has
// touched yet; its resolution feeds the PrefetchHits/PrefetchWasted telemetry.
type frame struct {
	key        frameKey
	pf         *pfile // owning file (saves a files-map lookup on hot paths)
	cells      []int64
	dirty      bool
	prefetched bool
	elem       *list.Element
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
		lru:        list.New(),
		dirty:      map[frameKey]*frame{},
		free:       map[int64][]int64{},
		maxRetries: extmem.DefaultMaxDeviceAttempts,
	}
	if e.capFrames = cfg.M / cfg.B; e.capFrames < 2 {
		e.capFrames = 2
	}
	if e.batchFrames = e.capFrames / 4; e.batchFrames < 4 {
		e.batchFrames = 4
	}
	e.readAhead = 4
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
		slot = 1
	}
	phys := e.nextPhys
	e.nextPhys++
	cells := e.cfg.B * slot
	e.files[phys] = &pfile{
		arity: arity, slot: slot,
		frameCells: cells, frameBytes: int64(cells) * 8,
		lastSeq: -2,
	}
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

// latchErr records the first failed syscall. A failure inside a charged
// operation also panics there; one reached from Flush or Close, where a panic
// has no catcher, is returned instead. Either way every later charged
// operation re-raises it (checkErr), and Flush/Close return it.
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
// [off, off+n) of phys. off is frame-aligned and windows only ever grow a
// file, so every touched frame is overwritten from its first cell — no
// read-modify-write is needed and the cache frame can be replaced outright.
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
	pf := e.pfileOf(phys)
	for k := off / e.cfg.B; len(cells) > 0; k++ {
		n := len(cells)
		if n > pf.frameCells {
			n = pf.frameCells
		}
		fr := pf.frame(k)
		if fr == nil {
			fr = e.insertFrame(pf, frameKey{phys, k})
		} else {
			e.lru.MoveToFront(fr.elem)
			if fr.prefetched {
				// Overwritten before any read touched it: the read-ahead
				// fetched a frame whose contents were never used.
				fr.prefetched = false
				e.stats.PrefetchWasted++
			}
		}
		fr.cells = append(fr.cells[:0], cells[:n]...)
		if !fr.dirty {
			fr.dirty = true
			e.dirty[fr.key] = fr
		}
		cells = cells[n:]
	}
	if len(e.dirty) >= e.batchFrames {
		if err := e.flushLocked(); err != nil {
			panic(err)
		}
	}
	e.evictLocked()
}

// ReadRange implements extmem.Backend: fetch tuples [off, off+n) of phys —
// from the cache, the device, or (when no device copy exists yet) rebuilt
// from the image — and byte-verify the result against want.
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
	served := "cache"
	for k := off / e.cfg.B; len(want) > 0; k++ {
		n := len(want)
		if n > pf.frameCells {
			n = pf.frameCells
		}
		part := want[:n]
		want = want[n:]
		fr := pf.frame(k)
		switch {
		case fr != nil:
			e.lru.MoveToFront(fr.elem)
			if fr.prefetched {
				fr.prefetched = false
				e.stats.PrefetchHits++
			}
		case k < len(pf.offs) && pf.offs[k] >= 0 && pf.devCells[k] > 0:
			fr = e.fetchFrame(pf, phys, k)
			if served == "cache" {
				served = "device"
			}
			if k == pf.lastSeq+1 {
				e.prefetch(pf, phys, k+1)
			}
			pf.lastSeq = k
		default:
			// No device copy yet (unflushed tail, or a clone that diverged
			// from its original before this frame was ever written): the
			// image is the only source. Materialize and keep it dirty so the
			// device catches up.
			fr = e.insertFrame(pf, frameKey{phys, k})
			fr.cells = append(fr.cells[:0], part...)
			fr.dirty = true
			e.dirty[fr.key] = fr
			e.stats.Backfills++
			served = "backfill"
		}
		e.verify(fr, part)
		if len(fr.cells) < len(part) {
			// The device copy is a stale prefix (the image grew past the
			// last flushed window, e.g. a writer's buffered tail): extend
			// from the image.
			fr.cells = append(fr.cells, part[len(fr.cells):]...)
			if !fr.dirty {
				fr.dirty = true
				e.dirty[fr.key] = fr
			}
			e.stats.Backfills++
		}
	}
	switch served {
	case "cache":
		e.stats.CacheHits++
	case "device":
		e.stats.DeviceServes++
	default:
		e.stats.BackfillServes++
	}
	e.evictLocked()
}

// maxFrameRepairs bounds consecutive repairs of one frame: a frame the device
// keeps tearing faster than the engine can re-flush it is declared corrupt.
const maxFrameRepairs = 4

// verify byte-compares a frame against the authoritative image window want.
// With a fault device installed, a mismatch is repaired: the
// image window — authoritative by construction — overwrites the frame, which
// is marked dirty so the next flush re-lands the good bytes on the device.
// Repairs are bounded per frame; past the bound, or with the real device
// underneath (where a mismatch means an engine bug, never an injected torn
// write), the mismatch panics with a typed error wrapping ErrCorruption.
func (e *Engine) verify(fr *frame, want []int64) {
	got := fr.cells
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			e.repairFrame(fr, want, i, got[i], want[i])
			e.stats.VerifiedCells += int64(len(want))
			return
		}
	}
	if len(e.repairs) > 0 {
		delete(e.repairs, fr.key) // clean verify resets the consecutive count
	}
	e.stats.VerifiedCells += int64(n)
}

// repairFrame handles one verify mismatch at cell i; see verify.
func (e *Engine) repairFrame(fr *frame, want []int64, i int, got, exp int64) {
	err := fmt.Errorf("diskfile: %w: phys %d frame %d cell %d: device has %d, image has %d",
		extmem.ErrCorruption, fr.key.phys, fr.key.idx, i, got, exp)
	if e.repairs == nil {
		panic(err)
	}
	if e.repairs[fr.key]++; e.repairs[fr.key] > maxFrameRepairs {
		panic(fmt.Errorf("%w (repaired %d times, giving up)", err, maxFrameRepairs))
	}
	fr.cells = append(fr.cells[:0], want...)
	if !fr.dirty {
		fr.dirty = true
		e.dirty[fr.key] = fr
	}
	fr.prefetched = false
	e.faults.Repairs++
}

// Truncate implements extmem.Backend: drop every cached frame of phys and
// return its device frames to the free list.
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
	// pf.frames covers every resident frame, including backfilled frames
	// beyond the allocated device range.
	for _, fr := range pf.frames {
		if fr != nil {
			e.dropFrame(fr)
		}
	}
	pf.offs = pf.offs[:0]
	pf.devCells = pf.devCells[:0]
	pf.frames = pf.frames[:0]
	pf.lastSeq = -2
}

// Flush implements extmem.Backend: drain the dirty-frame batch to the device.
// A latched syscall failure — this flush's or an earlier one's — is returned.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.flushLocked() // a failure is latched in ioErr
	return e.ioErr
}

// Close implements extmem.Backend: flush, release the descriptor, and remove
// a retained backing file. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.flushLocked() // a failure is latched in ioErr
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

// CachedFrames returns the number of frames currently resident (for tests).
func (e *Engine) CachedFrames() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nFrames
}

func (e *Engine) ensureOpen() {
	if e.closed {
		panic("diskfile: engine used after Close")
	}
}

// insertFrame adds an empty frame for key at the front of the LRU, reusing an
// evicted shell (and its cells capacity) when one is free: the steady-state
// evict-and-refetch churn of a scan larger than the cache allocates nothing.
func (e *Engine) insertFrame(pf *pfile, key frameKey) *frame {
	var fr *frame
	if n := len(e.frameFree); n > 0 {
		fr = e.frameFree[n-1]
		e.frameFree = e.frameFree[:n-1]
		fr.key, fr.pf, fr.cells = key, pf, fr.cells[:0]
	} else {
		fr = &frame{key: key, pf: pf}
	}
	fr.elem = e.lru.PushFront(fr)
	for len(pf.frames) <= key.idx {
		pf.frames = append(pf.frames, nil)
	}
	pf.frames[key.idx] = fr
	e.nFrames++
	return fr
}

func (e *Engine) dropFrame(fr *frame) {
	if fr.prefetched {
		fr.prefetched = false
		e.stats.PrefetchWasted++
	}
	e.lru.Remove(fr.elem)
	fr.pf.frames[fr.key.idx] = nil
	e.nFrames--
	delete(e.dirty, fr.key)
	fr.pf, fr.elem, fr.dirty = nil, nil, false
	e.frameFree = append(e.frameFree, fr)
}

// evictLocked enforces the M/B-frame cache capacity. Evicting a dirty victim
// drains the whole dirty batch first — the victim leaves clean, and the batch
// gets its coalescing shot at the same time.
func (e *Engine) evictLocked() {
	for e.nFrames > e.capFrames {
		victim := e.lru.Back().Value.(*frame)
		if victim.dirty {
			if err := e.flushLocked(); err != nil {
				panic(err)
			}
			continue
		}
		e.dropFrame(victim)
		e.stats.Evictions++
	}
}

// fetchFrame demand-reads one frame from the device into the cache, as a
// one-frame group.
func (e *Engine) fetchFrame(pf *pfile, phys uint64, k int) *frame {
	fr := e.insertFrame(pf, frameKey{phys, k})
	e.stats.BlockReads++
	e.stats.ReadCalls++
	e.preadGroup([]*frame{fr}, pf.offs[k], []int{pf.devCells[k]})
	return fr
}

// prefetch pulls up to readAhead device-resident frames following a detected
// sequential scan into the cache ahead of their demand, coalescing
// offset-contiguous runs into single preads — the read-side mirror of the
// write batcher. Grouping is decided at the charged operation, so the
// ReadCalls telemetry is deterministic.
func (e *Engine) prefetch(pf *pfile, phys uint64, from int) {
	var (
		frs   []*frame
		cells []int
		off   int64
	)
	flush := func() {
		if len(frs) == 0 {
			return
		}
		e.stats.ReadCalls++
		e.preadGroup(frs, off, cells)
		frs, cells = nil, nil
	}
	for k := from; k < from+e.readAhead; k++ {
		if k >= len(pf.offs) || pf.offs[k] < 0 || pf.devCells[k] == 0 {
			break
		}
		if pf.frame(k) != nil {
			flush()
			continue
		}
		if len(frs) > 0 && pf.offs[k] != off+int64(len(frs))*pf.frameBytes {
			flush()
		}
		fr := e.insertFrame(pf, frameKey{phys, k})
		fr.prefetched = true
		e.stats.Prefetched++
		e.stats.BlockReads++
		if len(frs) == 0 {
			off = pf.offs[k]
		}
		frs = append(frs, fr)
		cells = append(cells, pf.devCells[k])
	}
	flush()
}

// flushLocked forms every dirty frame into coalesced segments — allocating
// device space in deterministic (phys, frame) order — and pwrites each
// segment inline.
//
// A device failure is returned typed and latched (latchErr): charged callers
// panic with it so the abort unwinds through CatchAbort, while Flush and
// Close — where a panic has no catcher — return it as an error.
func (e *Engine) flushLocked() error {
	if len(e.dirty) == 0 {
		return nil
	}
	e.stats.Flushes++
	frames := make([]*frame, 0, len(e.dirty))
	for _, fr := range e.dirty {
		frames = append(frames, fr)
	}
	// Allocate in (phys, frame) order, then write in offset order: map
	// iteration order must not leak into allocation decisions, or the
	// coalescing runs — and the WriteCalls telemetry — would vary run to run.
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].key.phys != frames[j].key.phys {
			return frames[i].key.phys < frames[j].key.phys
		}
		return frames[i].key.idx < frames[j].key.idx
	})
	for _, fr := range frames {
		e.ensureAlloc(fr.pf, fr.key.idx)
	}
	sort.Slice(frames, func(i, j int) bool {
		return frames[i].pf.offs[frames[i].key.idx] < frames[j].pf.offs[frames[j].key.idx]
	})
	for i := 0; i < len(frames); {
		// Find the offset-contiguous run starting at i and size its buffer.
		runOff := frames[i].pf.offs[frames[i].key.idx]
		next := runOff
		j := i
		for j < len(frames) {
			fr := frames[j]
			if fr.pf.offs[fr.key.idx] != next {
				break
			}
			next += int64(len(fr.cells)) * 8
			j++
		}
		e.stats.WriteCalls++
		e.stats.BlockWrites += int64(j - i)
		buf := getBuf(int(next - runOff))[:0]
		for ; i < j; i++ {
			fr := frames[i]
			for _, c := range fr.cells {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
			fr.pf.devCells[fr.key.idx] = len(fr.cells)
			fr.dirty = false
			delete(e.dirty, fr.key)
		}
		err := e.devWriteAt(buf, runOff)
		putBuf(buf)
		if err != nil {
			e.latchErr(err)
			return err
		}
	}
	return nil
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

// preadGroup reads one contiguous run of frames with a single pread, staged
// through a pooled buffer. Frame i of the run starts at off + i*frameBytes,
// and only the final frame may be partial on the device (a mid-run gap is
// always backed by the later frames' written bytes, so the single pread never
// crosses EOF). A failed read is latched and panics at the charged operation.
func (e *Engine) preadGroup(frs []*frame, off int64, cells []int) {
	fb := int(frs[0].pf.frameBytes)
	buf := getBuf(fb*(len(frs)-1) + cells[len(frs)-1]*8)
	if err := e.devReadAt(buf, off); err != nil {
		putBuf(buf)
		e.latchErr(err)
		panic(err)
	}
	for i, fr := range frs {
		n := cells[i]
		if cap(fr.cells) < n {
			fr.cells = make([]int64, n)
		}
		fr.cells = fr.cells[:n]
		b := buf[i*fb:]
		for j := range fr.cells {
			fr.cells[j] = int64(binary.LittleEndian.Uint64(b[j*8:]))
		}
	}
	putBuf(buf)
}
