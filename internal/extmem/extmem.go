// Package extmem simulates the standard external memory (I/O) model of
// Aggarwal and Vitter: a main memory holding M tuples and a disk accessed in
// blocks of B tuples, with cost measured in block transfers.
//
// All data handled by the join algorithms in this repository lives in
// fixed-arity files of int64 tuples on a simulated Disk. Sequential access is
// provided by Reader and Writer, which charge exactly one I/O per block of B
// tuples crossed; random access is provided by ReadBlock. In-memory working
// space is accounted through Grab/Release so tests can assert that an
// algorithm never holds more than c·M tuples in memory at once (the model
// permits a constant factor c).
//
// Emission of join results is free, matching the "emit model" of the paper:
// results must reside in memory when emitted but are never charged disk I/Os.
package extmem

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Config fixes the parameters of the simulated machine.
type Config struct {
	// M is the memory capacity in tuples.
	M int
	// B is the block size in tuples.
	B int
	// MemFactor is the constant c such that algorithms may use up to c*M
	// tuples of memory. Zero means DefaultMemFactor.
	MemFactor int
}

// DefaultMemFactor is the default constant c in the c*M memory allowance.
const DefaultMemFactor = 16

// Validate reports whether the configuration is usable. Error messages carry
// the offending values of M and B plus the violated minimum, so a bad machine
// configuration is diagnosable from the message alone.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("extmem: invalid config M=%d B=%d: memory size M must be at least 1 tuple", c.M, c.B)
	}
	if c.B <= 0 {
		return fmt.Errorf("extmem: invalid config M=%d B=%d: block size B must be at least 1 tuple", c.M, c.B)
	}
	if c.B > c.M {
		return fmt.Errorf("extmem: invalid config M=%d B=%d: block size B exceeds memory size M (need M >= 3*B = %d)",
			c.M, c.B, 3*c.B)
	}
	// Multi-way merging needs M/B - 1 >= 2 input blocks plus one output block
	// resident at once; smaller ratios would force the sorter to over-subscribe
	// the M budget, so they are rejected up front instead.
	if c.M/c.B-1 < 2 {
		return fmt.Errorf("extmem: invalid config M=%d B=%d: merge fan-in M/B-1 = %d is below the minimum 2 (need M >= 3*B = %d)",
			c.M, c.B, c.M/c.B-1, 3*c.B)
	}
	return nil
}

// Stats accumulates the I/O and memory behaviour of a run.
type Stats struct {
	// Reads and Writes count block transfers from and to disk.
	Reads  int64
	Writes int64
	// MemHiWater is the maximum number of tuples simultaneously held in
	// memory, as accounted via Grab/Release.
	MemHiWater int
}

// IOs returns the total number of block transfers.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Add returns the component-wise sum of two Stats (hi-water takes the max).
func (s Stats) Add(o Stats) Stats {
	s.Reads += o.Reads
	s.Writes += o.Writes
	if o.MemHiWater > s.MemHiWater {
		s.MemHiWater = o.MemHiWater
	}
	return s
}

// Sub returns the difference of the I/O counters (hi-water is kept from s).
func (s Stats) Sub(o Stats) Stats {
	s.Reads -= o.Reads
	s.Writes -= o.Writes
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d total=%d memHiWater=%d",
		s.Reads, s.Writes, s.IOs(), s.MemHiWater)
}

// ErrMemoryExceeded is returned (wrapped) when an algorithm grabs more than
// c*M tuples of memory.
var ErrMemoryExceeded = errors.New("extmem: memory allowance exceeded")

// ErrBudgetExceeded is the typed sentinel thrown (as a panic) by the charging
// path when an armed charge budget is reached: the disk's accumulated I/O
// count has hit the watermark set with SetChargeBudget, so whatever run is in
// progress can no longer beat the incumbent it was measured against. Catch it
// with CatchBudgetExceeded, which unwinds the run cleanly.
var ErrBudgetExceeded = errors.New("extmem: charge budget exceeded")

// Disk is a simulated disk plus the memory accountant. A Disk is not safe for
// concurrent use — each instance is confined to one goroutine, as the
// simulated machine is sequential. Cancel is the one exception (see
// cancelErr).
type Disk struct {
	cfg      Config
	stats    Stats
	memInUse int
	memCap   int
	nextID   int
	// charging can be suspended for free bookkeeping operations (never used
	// by algorithm code paths; exists for harness-internal verification).
	suspended int
	// phase labels I/Os for cost breakdowns; empty means DefaultPhase.
	phase string
	// phaseDepth counts the WithPhase scopes currently open. Tape recorders
	// use it to distinguish charges made under the ambient phase (the one the
	// caller had when recording started) from charges under a phase the
	// recorded operator pushed itself — even when both happen to carry the
	// same label.
	phaseDepth int
	phaseStats map[string]Stats
	// opMemo is an opaque slot for the opcache operator memo. The disk only
	// stores and hands it back; opcache owns the concrete type.
	opMemo any
	// recorders is the stack of active charge-tape recorders (see StartTape).
	recorders []tapeRecorder
	// memPeaks is the stack of active interval peak watches (StartMemPeak).
	memPeaks []*int
	// budget holds the armed charge-budget watermark, encoded as limit+1 so
	// the zero value means "no budget". Like the rest of the Disk it is
	// goroutine-confined; Cancel is the only cross-goroutine entry point
	// (see cancelErr).
	budget int64
	// faults is the armed model-layer fault injector, nil when no such plan
	// is set (see fault.go).
	faults *faultInjector
	// cancelErr is the cancellation mark: an atomic slot holding nil until
	// cancelled, so WatchContext can cancel from its watcher goroutine.
	cancelErr atomic.Pointer[error]
	// backend executes the transfer commands behind the charging seam; nil is
	// the pure counting simulator (see backend.go).
	backend Backend
	// xfer is the per-disk seam-transfer ledger mirroring stats — see
	// XferStats for the invariant tying the two together. ResetStats zeroes
	// it.
	xfer XferStats
	// arena carves file data from pooled slabs when switched on (slab.go);
	// recycled marks a disk whose slabs went back to the pool.
	arena    slabArena
	recycled bool
}

// DefaultPhase is the label for I/Os charged outside any WithPhase scope.
const DefaultPhase = "scan/join"

// NewDisk creates a simulated disk for the given configuration.
// It panics if the configuration is invalid; use Config.Validate to check.
func NewDisk(cfg Config) *Disk {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := cfg.MemFactor
	if f == 0 {
		f = DefaultMemFactor
	}
	return &Disk{cfg: cfg, memCap: f * cfg.M}
}

// Config returns the machine parameters.
func (d *Disk) Config() Config { return d.cfg }

// M returns the memory capacity in tuples.
func (d *Disk) M() int { return d.cfg.M }

// B returns the block size in tuples.
func (d *Disk) B() int { return d.cfg.B }

// Stats returns a snapshot of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the I/O counters, the seam-transfer ledger, and the
// memory hi-water mark.
func (d *Disk) ResetStats() {
	d.stats = Stats{}
	d.xfer = XferStats{}
	d.stats.MemHiWater = d.memInUse
}

// Grab accounts for n tuples of in-memory working space. It returns
// ErrMemoryExceeded (wrapped) if the c*M allowance would be exceeded.
func (d *Disk) Grab(n int) error {
	if n < 0 {
		return fmt.Errorf("extmem: Grab(%d): negative size", n)
	}
	d.memInUse += n
	if d.memInUse > d.stats.MemHiWater {
		d.stats.MemHiWater = d.memInUse
	}
	for i := range d.recorders {
		if rec := &d.recorders[i]; d.memInUse-rec.baseMem > rec.peak {
			rec.peak = d.memInUse - rec.baseMem
		}
	}
	for _, p := range d.memPeaks {
		if d.memInUse > *p {
			*p = d.memInUse
		}
	}
	if d.memInUse > d.memCap {
		return fmt.Errorf("%w: in use %d > cap %d (c*M)", ErrMemoryExceeded, d.memInUse, d.memCap)
	}
	return nil
}

// Release returns n tuples of working space to the accountant.
func (d *Disk) Release(n int) {
	d.memInUse -= n
	if d.memInUse < 0 {
		panic(fmt.Sprintf("extmem: Release: memory accounting underflow (%d)", d.memInUse))
	}
}

// MemInUse returns the currently accounted in-memory tuple count.
func (d *Disk) MemInUse() int { return d.memInUse }

// StartMemPeak begins tracking the absolute in-use peak (in tuples) on d
// and returns a stop function reporting the maximum held between the two
// calls. Stats.MemHiWater spans the disk's whole lifetime; a watch
// attributes a hi-water mark to one bounded run instead (the exhaustive
// strategy uses it so ExecStats reports the winning re-run's own peak,
// independent of what the planning phase touched). Watches nest; stop
// functions must be called in LIFO order and exactly once.
func (d *Disk) StartMemPeak() func() int {
	peak := d.memInUse
	d.memPeaks = append(d.memPeaks, &peak)
	return func() int {
		n := len(d.memPeaks)
		if n == 0 || d.memPeaks[n-1] != &peak {
			panic("extmem: StartMemPeak stop functions called out of order")
		}
		d.memPeaks = d.memPeaks[:n-1]
		return peak
	}
}

// chargeStandIn charges blocks that no concrete window crosses the seam for,
// booking them on the given side of the seam ledger: ReplayedReads and
// ReplayedWrites for ReplayIO (blocks that bill the cost of I/O a memoized
// run already performed), UnreadReads for Reader.Bill (a scan whose tuples
// nobody looks at). Either way Stats == performed + replayed + unread stays
// exact on both backends. Concrete transfers go through
// chargeReadWindow/chargeWriteWindow (backend.go) instead. A model fault plan
// fires at an exact I/O number, so while one is armed the blocks are charged
// one at a time, each checked like the transfer it stands in for; a fault or
// cancellation then lands on the same charge as in a run that performed them.
func (d *Disk) chargeStandIn(op string, blocks int64, side *int64) {
	d.live()
	if d.suspended != 0 {
		return
	}
	for blocks > 0 {
		k := d.replayBatch(blocks)
		d.preCharge(op, d.stats.IOs())
		n := d.budgetAllowance(k)
		if n > 0 {
			*side += n
		}
		if op == opRead {
			d.applyRead(n)
		} else {
			d.applyWrite(n)
		}
		blocks -= k
	}
}

// replayBatch is how many of the given replayed blocks to charge at once:
// all of them, or one while a model fault plan is armed.
func (d *Disk) replayBatch(blocks int64) int64 {
	if d.faults != nil {
		return 1
	}
	return blocks
}

// budgetAllowance checks an armed charge budget against a pending charge of
// the given size. If the charge would push the accumulated I/O count to (or
// past) the watermark, it applies the part of the charge that fits below it —
// so the final total lands on the watermark exactly, independent of charge
// granularity (a tape replay merges many unit charges into one; clamping makes
// the aborted partial cost identical either way) — and panics with
// ErrBudgetExceeded. Otherwise it returns blocks unchanged for the caller to
// apply.
func (d *Disk) budgetAllowance(blocks int64) int64 {
	if d.budget == 0 {
		return blocks
	}
	limit := d.budget - 1
	if d.stats.IOs()+blocks < limit {
		return blocks
	}
	return limit - d.stats.IOs() // may be <= 0 when the budget was set below the total already charged
}

func (d *Disk) applyRead(blocks int64) {
	if blocks > 0 {
		d.stats.Reads += blocks
		if d.phaseStats != nil {
			s := d.phaseStats[d.phaseLabel()]
			s.Reads += blocks
			d.phaseStats[d.phaseLabel()] = s
		}
		d.recordCharge(blocks, 0)
	}
	if d.budget != 0 && d.stats.IOs() >= d.budget-1 {
		panic(ErrBudgetExceeded)
	}
}

func (d *Disk) applyWrite(blocks int64) {
	if blocks > 0 {
		d.stats.Writes += blocks
		if d.phaseStats != nil {
			s := d.phaseStats[d.phaseLabel()]
			s.Writes += blocks
			d.phaseStats[d.phaseLabel()] = s
		}
		d.recordCharge(0, blocks)
	}
	if d.budget != 0 && d.stats.IOs() >= d.budget-1 {
		panic(ErrBudgetExceeded)
	}
}

func (d *Disk) phaseLabel() string {
	if d.phase == "" {
		return DefaultPhase
	}
	return d.phase
}

// EnablePhases turns on per-phase I/O accounting (off by default; it costs
// a map update per block transfer).
func (d *Disk) EnablePhases() {
	if d.phaseStats == nil {
		d.phaseStats = map[string]Stats{}
	}
}

// WithPhase labels all I/Os charged during fn with the given phase name
// (innermost label wins under nesting). A no-op unless EnablePhases was
// called.
func (d *Disk) WithPhase(name string, fn func()) {
	prev := d.phase
	d.phase = name
	d.phaseDepth++
	fn()
	d.phaseDepth--
	d.phase = prev
}

// PhaseStats returns a snapshot of the per-phase breakdown (nil when phase
// accounting is disabled).
func (d *Disk) PhaseStats() map[string]Stats {
	if d.phaseStats == nil {
		return nil
	}
	out := make(map[string]Stats, len(d.phaseStats))
	for k, v := range d.phaseStats {
		out[k] = v
	}
	return out
}

// ResetPhases clears the per-phase breakdown (keeps accounting enabled).
func (d *Disk) ResetPhases() {
	if d.phaseStats != nil {
		d.phaseStats = map[string]Stats{}
	}
}

// Suspend temporarily stops I/O charging; it returns a function restoring it.
// This is only for test harness verification (e.g. computing expected results
// without polluting counters), never for algorithm code.
func (d *Disk) Suspend() func() {
	d.suspended++
	return func() { d.suspended-- }
}

// IsSuspended reports whether I/O charging is currently suspended.
func (d *Disk) IsSuspended() bool { return d.suspended > 0 }

// SetChargeBudget arms the charge budget: the moment the disk's accumulated
// I/O count (Stats().IOs()) reaches limit, the charging path panics with
// ErrBudgetExceeded. The crossing charge is clamped so the accumulated total
// lands on limit exactly — see budgetAllowance — making the partial cost of an
// aborted run deterministic regardless of how its charges were batched.
// Suspended charges bypass the budget like they bypass the counters.
//
// The budget is transient accounting state: callers arm it around one
// measured run and clear it afterwards.
func (d *Disk) SetChargeBudget(limit int64) {
	if limit < 0 {
		limit = 0
	}
	d.budget = limit + 1
}

// ClearChargeBudget disarms the charge budget.
func (d *Disk) ClearChargeBudget() { d.budget = 0 }

// ChargeBudget returns the armed watermark, if any.
func (d *Disk) ChargeBudget() (limit int64, armed bool) {
	if d.budget == 0 {
		return 0, false
	}
	return d.budget - 1, true
}

// CatchBudgetExceeded runs fn, converting a charge-budget abort into a clean
// (true, nil) return. The panic unwinds fn from wherever the crossing charge
// happened, so the disk's transient bookkeeping can be mid-operation; the
// state captured at the call — phase label and nesting depth, the open tape
// recorder stack, the suspension count, and the memory accountant's in-use
// count — is restored before returning. Durable accounting is deliberately
// kept: the I/O charged before the abort stays in Stats (that is the measured
// partial cost of the aborted run), and the hi-water mark keeps any peak the
// aborted run reached. Panics other than ErrBudgetExceeded — including fault
// and cancellation aborts — propagate unchanged; use CatchAbort to convert
// those into typed errors too.
func (d *Disk) CatchBudgetExceeded(fn func() error) (aborted bool, err error) {
	s := d.takeUnwind()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); !ok || !errors.Is(e, ErrBudgetExceeded) {
			panic(r)
		}
		d.restoreUnwind(s)
		aborted, err = true, nil
	}()
	return false, fn()
}

// ReplayIO charges a previously recorded I/O delta as if the work had been
// redone: the charges respect suspension and the current phase label exactly
// like the reads and writes they stand in for. Used by the operator memo to
// replay a recorded operator's cost on a hit (see ReplayTape).
func (d *Disk) ReplayIO(reads, writes int64) {
	if reads > 0 {
		d.chargeStandIn(opRead, reads, &d.xfer.ReplayedReads)
	}
	if writes > 0 {
		d.chargeStandIn(opWrite, writes, &d.xfer.ReplayedWrites)
	}
}

// SetOpMemo stores the opaque operator-memo handle (nil detaches it).
func (d *Disk) SetOpMemo(m any) { d.opMemo = m }

// OpMemo returns the opaque operator-memo handle, or nil when none is set.
func (d *Disk) OpMemo() any { return d.opMemo }

// TapeSegment is one run of same-phase block charges on a charge tape. An
// empty Phase marks charges made under the ambient phase at recording time;
// on replay they land under the replayer's current phase, exactly as a re-run
// of the recorded operator would charge them. A non-empty Phase names a phase
// the operator pushed itself and is re-pushed absolutely on replay.
type TapeSegment struct {
	Phase  string
	Reads  int64
	Writes int64
}

// ChargeTape is the recorded accounting footprint of one operator run: its
// block charges in order, partitioned into phase segments, plus the peak
// in-memory tuple count above the level held when recording started.
type ChargeTape struct {
	Segments []TapeSegment
	Peak     int
}

// IOs returns the total block transfers on the tape.
func (t ChargeTape) IOs() (reads, writes int64) {
	for _, s := range t.Segments {
		reads += s.Reads
		writes += s.Writes
	}
	return
}

// tapeRecorder accumulates one ChargeTape. baseDepth is the WithPhase nesting
// depth at StartTape: charges made at that depth are ambient (segment label
// ""), deeper charges carry their absolute label. baseMem is the in-use tuple
// count at StartTape, so peak is the operator's own contribution.
type tapeRecorder struct {
	baseDepth int
	baseMem   int
	peak      int
	segs      []TapeSegment
}

// recordCharge appends a (non-suspended) block charge to every active
// recorder, merging runs of same-label charges into one segment.
func (d *Disk) recordCharge(reads, writes int64) {
	for i := range d.recorders {
		rec := &d.recorders[i]
		label := ""
		if d.phaseDepth != rec.baseDepth {
			label = d.phaseLabel()
		}
		if n := len(rec.segs); n > 0 && rec.segs[n-1].Phase == label {
			rec.segs[n-1].Reads += reads
			rec.segs[n-1].Writes += writes
		} else {
			rec.segs = append(rec.segs, TapeSegment{Phase: label, Reads: reads, Writes: writes})
		}
	}
}

// StartTape pushes a charge-tape recorder: until the matching StopTape, every
// non-suspended block charge and every memory peak on this disk is captured.
// Recorders nest (an operator that runs sub-operators records their charges
// too — including replayed ones, which go through the same charging paths).
func (d *Disk) StartTape() {
	d.recorders = append(d.recorders, tapeRecorder{baseDepth: d.phaseDepth, baseMem: d.memInUse})
}

// StopTape pops the innermost recorder and returns its tape.
func (d *Disk) StopTape() ChargeTape {
	n := len(d.recorders)
	if n == 0 {
		panic("extmem: StopTape without StartTape")
	}
	rec := d.recorders[n-1]
	d.recorders = d.recorders[:n-1]
	return ChargeTape{Segments: rec.segs, Peak: rec.peak}
}

// ReplayTape re-charges a recorded operator run: the memory peak is touched
// via Grab/Release (reproducing the hi-water effect of the real run at the
// current ambient memory level) and each segment's block transfers are
// replayed under its recorded phase. Charges respect suspension and the
// current phase label exactly like the I/Os they stand in for.
func (d *Disk) ReplayTape(t ChargeTape) error {
	if t.Peak > 0 {
		err := d.Grab(t.Peak)
		d.Release(t.Peak)
		if err != nil {
			return err
		}
	}
	for _, s := range t.Segments {
		if s.Phase == "" {
			d.ReplayIO(s.Reads, s.Writes)
		} else {
			d.WithPhase(s.Phase, func() { d.ReplayIO(s.Reads, s.Writes) })
		}
	}
	return nil
}

// File is a sequence of fixed-arity tuples stored on the simulated disk.
// The backing slice is the "disk contents"; algorithm code must only touch it
// through Reader, Writer, and ReadBlock so that I/Os are charged.
type File struct {
	d     *Disk
	id    int
	arity int
	data  []int64 // flat: tuple i occupies data[i*arity : (i+1)*arity]
	// contentID and version identify the file's contents: contentID is drawn
	// from a process-global counter at creation and version is bumped on every
	// mutation, so a (contentID, version) pair observed at some point names an
	// immutable tuple sequence. Clones share the pair (same bytes); shared
	// marks such aliases, which take a fresh contentID on their first mutation
	// so the original's pair keeps naming the original data.
	contentID uint64
	version   uint64
	shared    bool
	// phys is the backend's physical-file handle (meaningful only when the
	// disk has a backend). Clones and snapshots share it — same bytes, same
	// device file; a shared alias takes a fresh handle on its first mutation,
	// and Truncate swaps to a fresh handle so stale snapshots of the old
	// contents never collide with rewritten device frames.
	phys uint64
}

// contentIDs is the process-global content-identity counter. Atomic because
// distinct disks (on distinct goroutines) may create files concurrently.
var contentIDs atomic.Uint64

// NewFile creates an empty file of the given tuple arity (number of columns).
// Arity zero is permitted: such a file stores only a tuple count (used for
// relations over zero attributes, which arise in degenerate subqueries).
func (d *Disk) NewFile(arity int) *File {
	if arity < 0 {
		panic(fmt.Sprintf("extmem: NewFile: negative arity %d", arity))
	}
	d.live()
	d.nextID++
	f := &File{d: d, id: d.nextID, arity: arity, contentID: contentIDs.Add(1)}
	if d.backend != nil {
		f.phys = d.backend.CreateFile(arity)
	}
	return f
}

// CloneTo returns a handle to f's contents that charges its I/O to disk d
// (the operator memo clones recorded outputs back onto the run's disk). The
// tuple data
// is shared, not copied, so the clone is a read-only view: the capacity of
// the shared slice is pinned, making a stray append through the clone
// reallocate rather than clobber the original, but callers must still treat
// clones as frozen — algorithm code only ever appends to files it created.
func (f *File) CloneTo(d *Disk) *File {
	d.live()
	d.nextID++
	return &File{d: d, id: d.nextID, arity: f.arity, data: f.data[:len(f.data):len(f.data)],
		contentID: f.contentID, version: f.version, shared: true, phys: f.phys}
}

// Snapshot returns a frozen, disk-less view of f's current contents for
// bookkeeping (the operator memo keeps one per entry). It charges nothing and
// cannot perform I/O; its only legitimate use is as a CloneTo source and for
// zero-cost content verification.
func (f *File) Snapshot() *File {
	return &File{arity: f.arity, data: f.data[:len(f.data):len(f.data)],
		contentID: f.contentID, version: f.version, shared: true, phys: f.phys}
}

// ContentID returns the file's content-identity tag. Together with Version it
// names the current tuple sequence: two files with equal (ContentID, Version)
// hold identical data (clones); a mutated file never reuses an old pair.
func (f *File) ContentID() uint64 { return f.contentID }

// Version returns the mutation counter, bumped on every Append and Truncate.
func (f *File) Version() uint64 { return f.version }

// mutating records n content changes (one per appended tuple, one for a
// truncate): shared aliases (clones) take a fresh contentID so the pair they
// used to share keeps naming the original data.
// On a backend, a shared alias likewise takes a fresh physical file — its
// pinned image slice will reallocate on append (copy-on-write), so its device
// mirror must diverge from the original's too; the missing prefix frames are
// backfilled from the image on demand.
func (f *File) mutating(n int) {
	if f.shared {
		f.contentID = contentIDs.Add(1)
		f.shared = false
		if f.d != nil && f.d.backend != nil {
			f.phys = f.d.backend.CreateFile(f.arity)
		}
	}
	f.version += uint64(n)
}

// Arity returns the number of columns per tuple.
func (f *File) Arity() int { return f.arity }

// Len returns the number of tuples in the file. Free: lengths are metadata.
func (f *File) Len() int {
	if f.arity == 0 {
		return len(f.data) // arity-0 files store one sentinel per tuple
	}
	return len(f.data) / f.arity
}

// Disk returns the disk this file lives on.
func (f *File) Disk() *Disk { return f.d }

// Blocks returns the number of disk blocks the file occupies.
func (f *File) Blocks() int64 {
	b := int64(f.d.cfg.B)
	n := int64(f.Len())
	return (n + b - 1) / b
}

// Truncate discards the file's contents. On a backend the old physical file
// is released and a fresh one takes its place: snapshots taken before the
// truncate keep aliasing the old (now storage-free) handle and rebuild their
// frames from their pinned image if read, while data written after the
// truncate can never collide with a stale snapshot's device frames.
func (f *File) Truncate() {
	f.mutating(1)
	f.data = f.data[:0]
	if f.d != nil && f.d.backend != nil {
		f.d.backend.Truncate(f.phys)
		f.phys = f.d.backend.CreateFile(f.arity)
	}
}

// Grow reserves host capacity for n more tuples, so a writer whose output
// length is known up front appends without regrowing the backing slice. It
// charges nothing and leaves the contents, and so ContentID and Version,
// unchanged. On a shared clone it is a no-op: the clone's capacity stays
// pinned so its first append still copies.
func (f *File) Grow(n int) {
	if f.shared || n <= 0 {
		return
	}
	if !f.d.arena.on {
		f.data = slices.Grow(f.data, n*f.Slot())
	} else if need := len(f.data) + n*f.Slot(); need > cap(f.data) {
		f.d.live()
		f.data = f.d.arena.realloc(f.data, need)
	}
}

// Slot returns the flat width of one tuple, treating arity 0 as width 1
// (a sentinel cell) so that lengths and block math stay uniform. It is the
// width of a tuple in the cells Reader.Block returns and Writer.AppendCells
// takes.
func (f *File) Slot() int {
	if f.arity == 0 {
		return 1
	}
	return f.arity
}

// Writer appends tuples to a file, charging one write I/O per block of B
// tuples (a final partial block costs one I/O at Flush/Close).
type Writer struct {
	f       *File
	buffed  int // tuples appended since the last block boundary charge
	written int64
	closed  bool
}

// NewWriter returns a writer appending to f. Appending to a non-empty file is
// allowed and continues from its current end; the first partially filled
// block, if any, is accounted as part of the new writes.
func (f *File) NewWriter() *Writer {
	return &Writer{f: f}
}

// Append adds one tuple. The tuple is copied; the caller may reuse t.
// It panics if len(t) does not match the file arity.
func (w *Writer) Append(t []int64) {
	if w.closed {
		panic("extmem: Writer.Append after Close")
	}
	f := w.f
	if len(t) != f.arity {
		panic(fmt.Sprintf("extmem: Writer.Append: tuple arity %d != file arity %d", len(t), f.arity))
	}
	f.mutating(1)
	if len(f.data)+f.Slot() > cap(f.data) && f.d.arena.on {
		f.growData(f.Slot())
	}
	if f.arity == 0 {
		f.data = append(f.data, 0)
	} else {
		f.data = append(f.data, t...)
	}
	w.buffed++
	w.written++
	if w.buffed == f.d.cfg.B {
		end := f.Len()
		f.d.chargeWriteWindow(f, end-w.buffed, end)
		w.buffed = 0
	}
}

// AppendCells adds the tuples held in cells, laid out as Reader.Block
// returns them: Slot cells per tuple. The cells are copied. It charges exactly
// as one Append per tuple would: it appends up to each block boundary, charges
// that window, and goes on, so the windows, their order and the point where an
// armed budget aborts (the tuples after it are not appended) are the same. It
// panics if len(cells) is not a multiple of the slot width.
func (w *Writer) AppendCells(cells []int64) {
	if w.closed {
		panic("extmem: Writer.AppendCells after Close")
	}
	f := w.f
	slot := f.Slot()
	if len(cells)%slot != 0 {
		panic(fmt.Sprintf("extmem: Writer.AppendCells: %d cells is not a whole number of %d-cell tuples", len(cells), slot))
	}
	b := f.d.cfg.B
	for len(cells) > 0 {
		seg := min(len(cells), (b-w.buffed)*slot)
		n := seg / slot
		f.mutating(n)
		if len(f.data)+seg > cap(f.data) && f.d.arena.on {
			f.growData(seg)
		}
		if f.arity == 0 {
			for range seg {
				f.data = append(f.data, 0)
			}
		} else {
			f.data = append(f.data, cells[:seg]...)
		}
		cells = cells[seg:]
		w.buffed += n
		w.written += int64(n)
		if w.buffed == b {
			end := f.Len()
			f.d.chargeWriteWindow(f, end-b, end)
			w.buffed = 0
		}
	}
}

// Written returns the number of tuples appended so far.
func (w *Writer) Written() int64 { return w.written }

// Close flushes the final partial block (one write I/O if non-empty) and
// hands back host capacity the file reserved but did not fill (see clip).
func (w *Writer) Close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.buffed > 0 {
		end := w.f.Len()
		w.f.d.chargeWriteWindow(w.f, end-w.buffed, end)
		w.buffed = 0
	}
	w.f.clip()
}

// Reader scans a contiguous tuple range of a file sequentially, charging one
// read I/O per block of B tuples crossed. The first access charges for the
// block containing the starting offset.
type Reader struct {
	f         *File
	pos, end  int // tuple indices
	remaining int // tuples left in the currently charged block window
}

// NewReader returns a reader over the whole file.
func (f *File) NewReader() *Reader { return f.NewRangeReader(0, f.Len()) }

// NewRangeReader returns a reader over tuples [off, off+n).
// It panics if the range is out of bounds.
func (f *File) NewRangeReader(off, n int) *Reader {
	r := &Reader{f: f}
	r.Reset(off, n)
	return r
}

// Reset re-aims the reader at tuples [off, off+n) of its file, exactly as a
// fresh NewRangeReader would be: the next access charges the block holding
// off. It panics if the range is out of bounds.
func (r *Reader) Reset(off, n int) {
	f := r.f
	if off < 0 || n < 0 || off+n > f.Len() {
		panic(fmt.Sprintf("extmem: reader range (%d,%d) out of bounds (len %d)", off, n, f.Len()))
	}
	f.d.live()
	r.pos, r.end, r.remaining = off, off+n, 0
}

// Next returns the next tuple, or nil when the range is exhausted.
// The returned slice aliases disk storage and must not be modified; it stays
// valid only conceptually within the current block — callers that keep tuples
// must copy them (and account the memory via Grab). It is invalid after the
// disk's Recycle.
func (r *Reader) Next() []int64 {
	cells, n := r.Block()
	if n == 0 {
		return nil
	}
	r.pos++
	r.remaining--
	return cells[:r.f.arity:r.f.arity]
}

// Block returns the unread tuples of the current block window as flat cells,
// Slot cells per tuple, and their count n; (nil, 0) when the range is
// exhausted. The window ends at the next block boundary or at the range's
// end, whichever is first. It charges the window's block the first time the
// window is touched, and never again: a Next, Block or Skip that follows stays
// inside the charged window until it is used up. Block consumes nothing; Skip
// and Next do. The cells alias disk storage and must not be modified; they
// are invalid after the disk's Recycle.
func (r *Reader) Block() (cells []int64, n int) {
	if r.pos >= r.end {
		return nil, 0
	}
	if r.remaining == 0 {
		r.f.d.chargeReadWindow(r.f, r.pos)
		b := r.f.d.cfg.B
		r.remaining = b - r.pos%b
	}
	n = min(r.remaining, r.end-r.pos)
	slot := r.f.Slot()
	return r.f.data[r.pos*slot : (r.pos+n)*slot], n
}

// Skip consumes the next n tuples of the current block window, which Block
// charged. It panics if n exceeds the tuples Block would return.
func (r *Reader) Skip(n int) {
	if n == 0 {
		return
	}
	if n < 0 || n > r.remaining || n > r.end-r.pos {
		panic(fmt.Sprintf("extmem: Reader.Skip(%d) beyond the charged window (%d left)", n, min(r.remaining, r.end-r.pos)))
	}
	r.pos += n
	r.remaining -= n
}

// Bill charges the block windows left in the reader's range exactly as a loop
// of Block and Skip over them would — the same count, in the same order, under
// the same budget clamp, fault and cancellation checks — and consumes the
// range, but transfers nothing: no window crosses the backend seam, and the
// seam ledger books the charges as UnreadReads. As with Block, the rest of a
// window already charged is free. Only a caller that never looks at the tuples
// may bill them instead of reading them (a planning-only dry run).
func (r *Reader) Bill() {
	if r.pos >= r.end {
		return
	}
	d := r.f.d
	b := d.cfg.B
	if next := r.pos + r.remaining; next < r.end {
		d.chargeStandIn(opRead, int64((r.end-1)/b-next/b+1), &d.xfer.UnreadReads)
	}
	r.pos, r.remaining = r.end, 0
}

// Cells returns the cells of the tuples left in the reader's range, Slot
// cells per tuple, without charging an I/O: the file image that Block's
// windows are slices of, so a caller may keep a tuple's cells past its window. The caller must
// read a tuple's cells only once Block has charged its window. The cells must
// not be modified and are invalid after the disk's Recycle or a write to the
// file.
func (r *Reader) Cells() []int64 {
	slot := r.f.Slot()
	return r.f.data[r.pos*slot : r.end*slot]
}

// Resume moves the reader forward to tuple pos of its range and counts the
// block window holding pos as charged, without billing it: the next Block
// returns the rest of that window for free. Only a replayed memo step may
// call it, right after the operator memo replayed the charges of the reads
// that took the recorded run to pos; anywhere else it reads a block past the
// accountant. It panics if pos is behind the reader or past its range.
func (r *Reader) Resume(pos int) {
	if pos < r.pos || pos >= r.end {
		panic(fmt.Sprintf("extmem: Reader.Resume(%d) outside [%d, %d)", pos, r.pos, r.end))
	}
	b := r.f.d.cfg.B
	r.pos, r.remaining = pos, b-pos%b
}

// Pos returns the index of the next tuple to be returned.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns how many tuples are left in the range.
func (r *Reader) Remaining() int { return r.end - r.pos }

var emptyTuple = []int64{}

// ReadBlock performs one random block access: it charges one read I/O and
// returns the tuples of block i (tuple indices [i*B, min((i+1)*B, Len))).
// The returned slice aliases disk storage; do not modify.
func (f *File) ReadBlock(i int) [][]int64 {
	b := f.d.cfg.B
	lo := i * b
	if lo < 0 || lo >= f.Len() {
		panic(fmt.Sprintf("extmem: ReadBlock(%d) out of bounds (len %d)", i, f.Len()))
	}
	hi := lo + b
	if hi > f.Len() {
		hi = f.Len()
	}
	f.d.chargeReadWindow(f, lo)
	out := make([][]int64, 0, hi-lo)
	slot := f.Slot()
	for j := lo; j < hi; j++ {
		if f.arity == 0 {
			out = append(out, emptyTuple)
		} else {
			out = append(out, f.data[j*slot:j*slot+f.arity])
		}
	}
	return out
}

// Raw returns the file's flat backing data without charging an I/O. Like At,
// it exists for verification and bookkeeping (the operator memo hashes and
// byte-compares contents with it); algorithm code must not use it to smuggle
// data past the accountant. The returned slice must not be modified, and is
// invalid after the disk's Recycle.
func (f *File) Raw() []int64 { return f.data }

// At returns tuple i without charging an I/O. It exists solely for
// verification in tests and for zero-cost metadata probes (e.g. checking
// boundary values of an already-charged block); algorithm code must not use
// it to smuggle data past the accountant. The returned slice is invalid
// after the disk's Recycle.
func (f *File) At(i int) []int64 {
	if f.arity == 0 {
		return emptyTuple
	}
	slot := f.Slot()
	return f.data[i*slot : i*slot+f.arity]
}
