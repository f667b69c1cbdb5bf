// Storage backends. The simulated machine's accounting — charges, budgets,
// fault injection, tapes, the operator memo — all lives in Disk
// and is backend-independent. Below it sits a narrow seam: every applied block
// charge corresponds to exactly one transfer command observed here, and a
// Backend implementation may turn those commands into real device I/O.
//
// Two implementations exist. The default (a nil backend) is the pure counting
// simulator: transfers are tallied in XferStats and no bytes move, because the
// in-memory image held by File is the disk contents. The second is the
// os.File-backed engine in internal/extmem/diskfile, which mirrors the image
// onto a real file with one syscall per performed transfer: a performed write
// pwrites the image window to the device, and a performed read preads its
// frame back and byte-verifies it against the image. A charge the operator
// memo replays, and a scan a dry run bills unread (see XferStats), performs no
// transfer. The image stays authoritative
// either way — which is what keeps results, policies, and charge accounting
// bit-identical across backends — while the file engine proves that the
// charged transfer schedule is physically executable, block for block.
package extmem

// Backend receives the transfer commands behind the charging seam. All offsets
// are in tuples and all payloads are flat cell slices (File.slot cells per
// tuple); off is always aligned to the configured block size B. A Backend
// serves one Disk, whose charging path is goroutine-confined; telemetry
// (DeviceStats) may be read from another goroutine, so implementations must
// be safe for concurrent use.
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
	// ReadRange fetches tuples [off, off+n) of phys — one block, n <= B — and
	// byte-verifies them against want, the authoritative in-memory image of
	// the same window. It panics if the device contents disagree (torn or
	// corrupt block).
	ReadRange(phys uint64, off int, want []int64)
	// Truncate discards the physical file's contents, releasing its storage.
	Truncate(phys uint64)
	// Flush reports a latched device failure. The file engine issues every
	// charged transfer as its own syscall, so it has no writes to buffer.
	Flush() error
	// Close releases the device; the backend is unusable after.
	Close() error
	// DeviceStats reports device-level telemetry (syscalls and frames moved).
	DeviceStats() DeviceStats
}

// XferStats counts the transfer commands observed at the backend seam, split
// by whether a concrete window crossed it. The ledger is maintained on every
// disk, sim or file: on both backends the invariant
//
//	Stats().Reads  == Transfers().Reads  + Transfers().ReplayedReads + Transfers().UnreadReads
//	Stats().Writes == Transfers().Writes + Transfers().ReplayedWrites
//
// holds at every instant — each applied charge is a performed transfer, a
// replayed one, or an unread one. The differential backend suite pins the
// file engine to the simulator through this identity: the transfers the
// engine observes are exactly the performed side of the Stats the model
// charged.
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
	// UnreadReads counts blocks billed by Reader.Bill: scan windows a
	// planning-only dry run charges but never looks at, so no block moves.
	UnreadReads int64
}

// TotalReads returns performed, replayed and unread read transfers.
func (x XferStats) TotalReads() int64 { return x.Reads + x.ReplayedReads + x.UnreadReads }

// TotalWrites returns performed plus replayed write transfers.
func (x XferStats) TotalWrites() int64 { return x.Writes + x.ReplayedWrites }

// Sub returns the component-wise difference.
func (x XferStats) Sub(o XferStats) XferStats {
	x.Reads -= o.Reads
	x.Writes -= o.Writes
	x.ReplayedReads -= o.ReplayedReads
	x.ReplayedWrites -= o.ReplayedWrites
	x.UnreadReads -= o.UnreadReads
	return x
}

// DeviceStats is backend-level telemetry: what happened below the seam. It is
// kept separate from the model's Stats/XferStats because the parity invariant
// lives at the seam, not at the syscall layer. On the file engine every
// performed transfer is one syscall: each billed read is exactly one pread
// unless its frame has no device copy yet, so ReadCalls + BackfillServes ==
// BilledReads. The nil (sim) backend reports all zeros.
type DeviceStats struct {
	// BilledReads and BilledWrites count charged windows that reached the
	// engine; on a run without faults they equal the disk's
	// XferStats.Reads/Writes.
	BilledReads  int64
	BilledWrites int64
	// UnbilledWrites counts free-path (suspended) writes mirrored to keep the
	// device current, e.g. instance loading in the harness.
	UnbilledWrites int64
	// BackfillServes counts billed reads of a frame with no device copy yet,
	// served by writing the frame from the image instead of a pread.
	BackfillServes int64
	// BlockReads and BlockWrites count frames moved by pread/pwrite;
	// ReadCalls and WriteCalls count the syscalls (one pwrite covers every
	// offset-contiguous frame of a window).
	BlockReads  int64
	BlockWrites int64
	ReadCalls   int64
	WriteCalls  int64
	// Backfills counts frames or frame tails written from the in-memory
	// image on a billed read.
	Backfills int64
	// VerifiedCells counts cells byte-compared against the image on billed
	// reads — the always-on torn-block check.
	VerifiedCells int64
	// Deprecated: always zero; the file engine has no block cache.
	CacheHits int64
	// Deprecated: always zero; the file engine has no read-ahead.
	Prefetched int64
	// Deprecated: always zero; the file engine has no read-ahead.
	PrefetchHits int64
	// Deprecated: always zero; device I/O is synchronous.
	OverlappedWrites int64
	// Deprecated: always zero; device I/O is synchronous.
	FlushQueueHiWater int64
	// Deprecated: always zero; device I/O is synchronous.
	PrefetchInFlight int64
	// Deprecated: always zero; device I/O is synchronous.
	DemandWaits int64
}

// NewDiskWithBackend creates a simulated disk whose transfer commands are
// executed by b (nil means the counting simulator, exactly as NewDisk). The
// caller owns b's lifecycle: Close it after the disk is done.
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

// Transfers returns this disk's seam-transfer ledger; like Stats it covers
// every charge made on the disk.
func (d *Disk) Transfers() XferStats { return d.xfer }

// DeviceStats returns the backend's device telemetry (zeros for the sim
// backend). Unlike Stats/Transfers it is the engine's own telemetry:
// ResetStats does not zero it.
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
	d.live()
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
	d.live()
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
	slot := f.Slot()
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
	slot := f.Slot()
	d.backend.WriteRange(f.phys, lo, f.data[lo*slot:hi*slot], billed)
}
