// Storage backends. The simulated machine's accounting — charges, budgets,
// fault injection, tapes, the operator memo, child disks — all lives in Disk
// and is backend-independent. Below it sits a narrow seam: every applied block
// charge corresponds to exactly one transfer command observed here, and a
// Backend implementation may turn those commands into real device I/O.
//
// Two implementations exist. The default (a nil backend) is the pure counting
// simulator: transfers are tallied in XferStats and no bytes move, because the
// in-memory image held by File is the disk contents. The second is the
// os.File-backed engine in internal/extmem/diskfile, which mirrors the image
// onto a real file: charged writes flush the image window to the device, and
// charged reads fetch the frame back through a block cache and byte-verify it
// against the image. The image stays authoritative either way — which is what
// keeps results, policies, and charge accounting bit-identical across
// backends — while the file engine proves that the charged transfer schedule
// is physically executable, block for block.
package extmem

// Backend receives the transfer commands behind the charging seam. All offsets
// are in tuples and all payloads are flat cell slices (File.slot cells per
// tuple); off is always aligned to the configured block size B. A Backend is
// shared by a Disk and all its children, which may run on distinct goroutines
// concurrently, so implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend ("file"); the nil backend reports as "sim".
	Name() string
	// CreateFile allocates a new physical file for tuples of the given arity
	// and returns its handle.
	CreateFile(arity int) (phys uint64)
	// WriteRange stores cells as the contents of tuples [off, off+n) of phys,
	// where n = len(cells)/slot. billed distinguishes charged transfers from
	// free-path mirroring (suspended loading), which must still reach the
	// device so that later charged reads have something to verify.
	WriteRange(phys uint64, off int, cells []int64, billed bool)
	// ReadRange fetches tuples [off, off+n) of phys and byte-verifies them
	// against want, the authoritative in-memory image of the same window. It
	// panics if the device contents disagree (torn or corrupt block).
	ReadRange(phys uint64, off int, want []int64)
	// Truncate discards the physical file's contents, releasing its storage.
	Truncate(phys uint64)
	// Flush forces buffered writes down to the device.
	Flush() error
	// Close flushes and releases the device; the backend is unusable after.
	Close() error
	// DeviceStats reports device-level telemetry (syscalls, cache behaviour).
	DeviceStats() DeviceStats
}

// XferStats counts the transfer commands observed at the backend seam, split
// by whether a concrete window crossed it. The ledger is maintained on every
// disk, sim or file: on both backends the invariant
//
//	Stats().Reads  == Transfers().Reads  + Transfers().ReplayedReads
//	Stats().Writes == Transfers().Writes + Transfers().ReplayedWrites
//
// holds at every instant — each applied charge is either a performed transfer
// or a replayed one. The differential backend suite pins the file engine to
// the simulator through this identity: the transfers the engine observes are
// exactly the Stats the model charged.
type XferStats struct {
	// Reads and Writes count performed transfers: a concrete block window of
	// some file crossed the seam (and, on the file backend, the device).
	Reads  int64
	Writes int64
	// ReplayedReads and ReplayedWrites count charge-replay stand-ins: blocks
	// charged by ReplayIO/ReplayTape on an operator-memo hit, which bill the
	// cost of transfers the memoized run already performed.
	ReplayedReads  int64
	ReplayedWrites int64
}

// TotalReads returns performed plus replayed read transfers.
func (x XferStats) TotalReads() int64 { return x.Reads + x.ReplayedReads }

// TotalWrites returns performed plus replayed write transfers.
func (x XferStats) TotalWrites() int64 { return x.Writes + x.ReplayedWrites }

// Add returns the component-wise sum.
func (x XferStats) Add(o XferStats) XferStats {
	x.Reads += o.Reads
	x.Writes += o.Writes
	x.ReplayedReads += o.ReplayedReads
	x.ReplayedWrites += o.ReplayedWrites
	return x
}

// Sub returns the component-wise difference.
func (x XferStats) Sub(o XferStats) XferStats {
	x.Reads -= o.Reads
	x.Writes -= o.Writes
	x.ReplayedReads -= o.ReplayedReads
	x.ReplayedWrites -= o.ReplayedWrites
	return x
}

// DeviceStats is backend-level telemetry: what happened below the seam. It is
// advisory (syscall counts, cache behaviour) and deliberately separate from
// the model's Stats/XferStats — a block cache legitimately makes physical
// syscalls differ from charged transfers; the parity invariant lives at the
// seam, not at the syscall layer. The nil (sim) backend reports all zeros.
type DeviceStats struct {
	// BilledReads and BilledWrites count charged windows that reached the
	// engine; on a run without faults they equal the disk tree's folded
	// XferStats.Reads/Writes.
	BilledReads  int64
	BilledWrites int64
	// UnbilledWrites counts free-path (suspended) writes mirrored to keep the
	// device current, e.g. instance loading in the harness.
	UnbilledWrites int64
	// Every billed read is served exactly one way:
	CacheHits      int64 // all frames already cached
	DeviceServes   int64 // frame demand-fetched from the device
	BackfillServes int64 // no device copy yet; frame rebuilt from the image
	// BlockReads and BlockWrites count frames moved by pread/pwrite;
	// ReadCalls and WriteCalls count the syscalls (write batching coalesces
	// contiguous frames into fewer, larger calls).
	BlockReads  int64
	BlockWrites int64
	ReadCalls   int64
	WriteCalls  int64
	// Prefetched counts frames fetched ahead of a detected sequential scan
	// (included in BlockReads). Each prefetched frame later resolves one way:
	// PrefetchHits counts frames a billed read found still cached (the
	// read-ahead paid off), PrefetchWasted counts frames evicted or
	// overwritten before any read touched them. Frames still cached and
	// untouched are pending, so Prefetched >= PrefetchHits + PrefetchWasted.
	Prefetched     int64
	PrefetchHits   int64
	PrefetchWasted int64
	// Backfills counts frames or frame tails rebuilt from the in-memory
	// image; Evictions and Flushes count cache evictions and dirty-batch
	// drains.
	Backfills int64
	Evictions int64
	Flushes   int64
	// VerifiedCells counts cells byte-compared against the image on billed
	// reads — the always-on torn-block check.
	VerifiedCells int64
	// Async-pipeline telemetry (all zero in synchronous device mode). Unlike
	// every counter above, these four measure how much device work overlapped
	// compute, which depends on host timing: they are reported through the
	// CLIs' telemetry lines and the bench/ per-layer metrics but deliberately
	// kept out of the deterministic experiment tables.
	OverlappedWrites  int64 // writeback segments whose pwrite completed with no drainer waiting
	FlushQueueHiWater int64 // peak depth of the writeback segment queue
	PrefetchInFlight  int64 // peak number of frames being loaded from the device concurrently
	DemandWaits       int64 // charged operations that blocked on an in-flight load or queued writeback
}

// NewDiskWithBackend creates a simulated disk whose transfer commands are
// executed by b (nil means the counting simulator, exactly as NewDisk). The
// backend is shared with every child disk created via NewChild. The caller
// owns b's lifecycle: Close it after the disk tree is done.
func NewDiskWithBackend(cfg Config, b Backend) *Disk {
	d := NewDisk(cfg)
	d.backend = b
	return d
}

// Backend returns the attached backend, or nil for the counting simulator.
func (d *Disk) Backend() Backend { return d.backend }

// BackendName returns "sim" for the counting simulator or the attached
// backend's name.
func (d *Disk) BackendName() string {
	if d.backend == nil {
		return "sim"
	}
	return d.backend.Name()
}

// Transfers returns this disk's seam-transfer ledger. Like Stats it is
// per-disk: Absorb folds a child's ledger into the parent, so after a run the
// root's ledger covers the whole tree.
func (d *Disk) Transfers() XferStats { return d.xfer }

// DeviceStats returns the backend's device telemetry (zeros for the sim
// backend). Unlike Stats/Transfers it is engine-global, not per-disk: the
// device and its cache are shared by the whole disk tree.
func (d *Disk) DeviceStats() DeviceStats {
	if d.backend == nil {
		return DeviceStats{}
	}
	return d.backend.DeviceStats()
}

// chargeReadWindow charges one read I/O for the block window containing tuple
// index pos of f, and performs the seam transfer for the covering frame. The
// transfer happens iff the charge is applied: the budget clamp is consulted
// first, and a charge that lands exactly on the watermark both transfers and
// panics — so Stats and the Xfer ledger stay in lockstep through budget
// aborts, fault retries, and cancellation.
func (d *Disk) chargeReadWindow(f *File, pos int) {
	if d.suspended != 0 {
		return // suspended reads are free and come straight from the image
	}
	d.preCharge(opRead, d.stats.IOs())
	blocks := d.budgetAllowance(1)
	if blocks > 0 {
		// The device transfer precedes the ledger increment: a typed device
		// abort thrown from the engine mid-transfer then unwinds with Stats
		// and the Xfer ledger still in lockstep (neither counted the failed
		// transfer), so a partial Result keeps the parity invariant.
		if d.backend != nil {
			d.deviceRead(f, pos)
		}
		d.xfer.Reads++
	}
	d.applyRead(blocks)
}

// chargeWriteWindow charges one write I/O for the just-buffered tuple window
// [start, end) of f and performs the seam transfer for its aligned frame
// cover. Suspended writes charge nothing but still mirror to the device
// (unbilled) — the free path loads data the billed path will later read back.
func (d *Disk) chargeWriteWindow(f *File, start, end int) {
	if d.suspended != 0 {
		if d.backend != nil {
			d.deviceWrite(f, start, end, false)
		}
		return
	}
	d.preCharge(opWrite, d.stats.IOs())
	blocks := d.budgetAllowance(1)
	if blocks > 0 {
		if d.backend != nil {
			d.deviceWrite(f, start, end, true)
		}
		d.xfer.Writes++
	}
	d.applyWrite(blocks)
}

// deviceRead issues the seam read for the aligned frame holding tuple pos,
// clamped to the file's current length, passing the image window as the
// verification oracle.
func (d *Disk) deviceRead(f *File, pos int) {
	b := d.cfg.B
	lo := pos - pos%b
	hi := lo + b
	if n := f.Len(); hi > n {
		hi = n
	}
	slot := f.slot()
	d.backend.ReadRange(f.phys, lo, f.data[lo*slot:hi*slot])
}

// deviceWrite issues the seam write for the aligned frame cover of the tuple
// window [start, end), clamped to the file's current length. A charged window
// holds at most B tuples but need not be block-aligned (a writer reopened on a
// partial tail charges at its own buffer boundary), so the cover may span two
// frames; it is still one seam transfer, matching the one charge.
func (d *Disk) deviceWrite(f *File, start, end int, billed bool) {
	b := d.cfg.B
	lo := start - start%b
	hi := end
	if r := end % b; r != 0 {
		hi += b - r
	}
	if n := f.Len(); hi > n {
		hi = n
	}
	slot := f.slot()
	d.backend.WriteRange(f.phys, lo, f.data[lo*slot:hi*slot], billed)
}
