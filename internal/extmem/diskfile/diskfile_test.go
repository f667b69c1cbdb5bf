package diskfile_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/extsort"
	"acyclicjoin/internal/opcache"
)

var cfg = extmem.Config{M: 64, B: 4}

// newFileDisk returns a disk backed by a fresh engine, closed at test end.
func newFileDisk(t *testing.T, dir string) (*extmem.Disk, *diskfile.Engine) {
	t.Helper()
	eng, err := diskfile.Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return extmem.NewDiskWithBackend(cfg, eng), eng
}

// assertParity checks the seam invariant: every applied charge is a performed
// or replayed transfer.
func assertParity(t *testing.T, d *extmem.Disk) {
	t.Helper()
	s, x := d.Stats(), d.Transfers()
	if s.Reads != x.TotalReads() || s.Writes != x.TotalWrites() {
		t.Fatalf("parity broken: stats reads=%d writes=%d, transfers %+v", s.Reads, s.Writes, x)
	}
}

// fill appends n deterministic arity-2 tuples through the charged path.
func fill(f *extmem.File, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := f.NewWriter()
	for i := 0; i < n; i++ {
		w.Append([]int64{rng.Int63n(100), rng.Int63n(100)})
	}
	w.Close()
}

func TestMirrorRoundTripParity(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	fill(f, 103, 1) // a partial tail block on purpose
	r := f.NewReader()
	var sum int64
	for tup := r.Next(); tup != nil; tup = r.Next() {
		sum += tup[0]
	}
	if sum == 0 {
		t.Fatal("read back nothing")
	}
	assertParity(t, d)
	ds := eng.DeviceStats()
	if ds.BilledWrites != d.Transfers().Writes {
		t.Fatalf("engine billed writes %d != disk transfers %d", ds.BilledWrites, d.Transfers().Writes)
	}
	if ds.BilledReads != d.Transfers().Reads {
		t.Fatalf("engine billed reads %d != disk transfers %d", ds.BilledReads, d.Transfers().Reads)
	}
	if got := ds.ReadCalls + ds.BackfillServes; got != ds.BilledReads {
		t.Fatalf("preads + backfill serves %d != billed reads %d (%+v)", got, ds.BilledReads, ds)
	}
	if ds.VerifiedCells == 0 {
		t.Fatal("no cells verified")
	}
}

// TestOneSyscallPerChargedTransfer pins the engine to the model: with no
// cache, every billed read of a written frame is exactly one one-frame pread,
// and every aligned billed write is exactly one one-frame pwrite.
func TestOneSyscallPerChargedTransfer(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	fill(f, 64*cfg.B, 2)
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	scanSum(f)
	scanSum(f)
	ds := eng.DeviceStats()
	if ds.BilledReads == 0 || ds.ReadCalls+ds.BackfillServes != ds.BilledReads {
		t.Fatalf("preads %d + backfill serves %d != billed reads %d", ds.ReadCalls, ds.BackfillServes, ds.BilledReads)
	}
	if ds.BackfillServes != 0 || ds.BlockReads != ds.ReadCalls {
		t.Fatalf("a scan of written frames must be one one-frame pread per billed read: %+v", ds)
	}
	if ds.WriteCalls != ds.BilledWrites || ds.BlockWrites != ds.BilledWrites {
		t.Fatalf("aligned writes must be one one-frame pwrite each: %+v", ds)
	}
	assertParity(t, d)
}

// TestEvictionAndWriteBatching pins that the engine holds no frames to evict
// and batches no writes across windows: data far beyond M/B frames is on the
// device as it is charged, Flush moves nothing, and only a single window that
// spans offset-contiguous frames is coalesced into one pwrite.
func TestEvictionAndWriteBatching(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	// 64 blocks of data >> 16 frames of model memory.
	fill(f, 64*cfg.B, 2)
	before := eng.DeviceStats()
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if after := eng.DeviceStats(); after != before {
		t.Fatalf("Flush moved data: %+v -> %+v", before, after)
	}
	if before.WriteCalls != before.BilledWrites || before.BlockWrites != before.BilledWrites {
		t.Fatalf("writes were batched across windows: %+v", before)
	}
	if before.CacheHits != 0 || before.Prefetched != 0 || before.PrefetchHits != 0 {
		t.Fatalf("deprecated cache counters moved: %+v", before)
	}

	// The first frames, long past any M/B-frame window, are read back by
	// demand preads, one per billed read.
	r := f.NewReader()
	for i := 0; i < 2*cfg.B; i++ {
		r.Next()
	}
	rd := eng.DeviceStats()
	if got := rd.ReadCalls - before.ReadCalls; got == 0 || got != rd.BilledReads-before.BilledReads {
		t.Fatalf("%d preads for %d billed reads of early frames", got, rd.BilledReads-before.BilledReads)
	}

	// One window of four fresh frames is one pwrite of four frames, and each
	// frame then verifies on its own pread.
	slot := 2
	phys := eng.CreateFile(slot)
	cells := make([]int64, 4*cfg.B*slot)
	for i := range cells {
		cells[i] = int64(i)
	}
	eng.WriteRange(phys, 0, cells, false)
	w := eng.DeviceStats()
	if w.WriteCalls != rd.WriteCalls+1 || w.BlockWrites != rd.BlockWrites+4 {
		t.Fatalf("a 4-frame window took %d pwrites for %d frames", w.WriteCalls-rd.WriteCalls, w.BlockWrites-rd.BlockWrites)
	}
	for k := 0; k < 4; k++ {
		eng.ReadRange(phys, k*cfg.B, cells[k*cfg.B*slot:(k+1)*cfg.B*slot])
	}
	if got := eng.DeviceStats(); got.ReadCalls != w.ReadCalls+4 || got.VerifiedCells != w.VerifiedCells+int64(len(cells)) {
		t.Fatalf("window frames not read back one pread each: %+v -> %+v", w, got)
	}
	assertParity(t, d)
}

// TestPrefetchOnSequentialScan pins that a sequential scan reads no frame
// ahead of demand: a straight scan is one pread per billed read, and an
// abandoned scan has read exactly the frames it consumed.
func TestPrefetchOnSequentialScan(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	fill(f, 64*cfg.B, 3)
	g := d.NewFile(2)
	fill(g, 64*cfg.B, 4)
	base := eng.DeviceStats()
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
	ds := eng.DeviceStats()
	billed := ds.BilledReads - base.BilledReads
	if billed != 64 {
		t.Fatalf("straight scan of 64 blocks billed %d reads", billed)
	}
	if ds.ReadCalls-base.ReadCalls != billed || ds.BlockReads-base.BlockReads != billed {
		t.Fatalf("straight scan read frames ahead of demand: %+v -> %+v", base, ds)
	}
	if ds.Prefetched != 0 || ds.PrefetchHits != 0 || ds.CacheHits != 0 {
		t.Fatalf("deprecated read-ahead counters moved: %+v", ds)
	}

	// A scan of f's start that is then abandoned has read only what it
	// consumed, and an unrelated write afterwards reads nothing.
	r2 := f.NewReader()
	for i := 0; i < 3*cfg.B; i++ {
		r2.Next()
	}
	partial := eng.DeviceStats()
	if got := partial.ReadCalls - ds.ReadCalls; got != 3 || partial.BilledReads-ds.BilledReads != 3 {
		t.Fatalf("partial scan of 3 blocks issued %d preads for %d billed reads", got, partial.BilledReads-ds.BilledReads)
	}
	h := d.NewFile(2)
	fill(h, 64*cfg.B, 5)
	if after := eng.DeviceStats(); after.ReadCalls != partial.ReadCalls {
		t.Fatalf("abandoned scan left reads behind: %+v -> %+v", partial, after)
	}
	assertParity(t, d)
}

func TestTruncateReusesDeviceSpace(t *testing.T) {
	dir := t.TempDir()
	d, eng := newFileDisk(t, dir)
	f := d.NewFile(2)
	fill(f, 32*cfg.B, 5)
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	size1 := backingSize(t, eng)
	for gen := 0; gen < 4; gen++ {
		f.Truncate()
		fill(f, 32*cfg.B, int64(6+gen))
		if err := eng.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if size2 := backingSize(t, eng); size2 > 2*size1 {
		t.Fatalf("truncate does not reuse frames: size grew %d -> %d over 4 rewrites", size1, size2)
	}
}

func backingSize(t *testing.T, eng *diskfile.Engine) int64 {
	t.Helper()
	fi, err := os.Stat(eng.Path())
	if err != nil {
		t.Fatalf("stat backing file: %v", err)
	}
	return fi.Size()
}

func TestCloneDivergenceBackfills(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	fill(f, 10*cfg.B, 7)
	clone := f.CloneTo(d)
	// First mutation of the shared alias: fresh contentID and a fresh
	// physical file with no device frames — the prefix must come back from
	// the image when read.
	w := clone.NewWriter()
	w.Append([]int64{1, 2})
	w.Close()
	r := clone.NewReader()
	n := 0
	for tup := r.Next(); tup != nil; tup = r.Next() {
		n++
	}
	if want := 10*cfg.B + 1; n != want {
		t.Fatalf("clone read %d tuples, want %d", n, want)
	}
	if ds := eng.DeviceStats(); ds.Backfills == 0 {
		t.Fatalf("diverged clone read did not backfill: %+v", ds)
	}
	assertParity(t, d)
	// Original must be untouched by the clone's divergence.
	r = f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
	assertParity(t, d)
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	d, eng := newFileDisk(t, dir)
	f := d.NewFile(2)
	fill(f, 32*cfg.B, 8)
	// Scribble the device behind the engine's back.
	raw, err := os.OpenFile(eng.Path(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open backing file: %v", err)
	}
	if _, err := raw.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 3); err != nil {
		t.Fatalf("scribble: %v", err)
	}
	raw.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted device frame was not detected")
		}
		if msg := fmt.Sprint(r); !containsAll(msg, "corruption") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestSuspendedLoadIsUnbilledButMirrored(t *testing.T) {
	d, eng := newFileDisk(t, "")
	f := d.NewFile(2)
	resume := d.Suspend()
	fill(f, 20*cfg.B, 10)
	resume()
	if s := d.Stats(); s.IOs() != 0 {
		t.Fatalf("suspended load charged %v", s)
	}
	ds := eng.DeviceStats()
	if ds.UnbilledWrites == 0 || ds.BilledWrites != 0 {
		t.Fatalf("suspended load not mirrored unbilled: %+v", ds)
	}
	// Charged reads must now verify against the mirrored data.
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
	assertParity(t, d)
}

// TestCatchAbortMidWriteFileBackend is the PR-5 leak suite extended to the
// file backend and to file descriptors: a charge-budget abort unwinding a
// writer mid-block must leave no torn device frames, and closing the engine
// must leave no open descriptors and no temp files behind.
func TestCatchAbortMidWriteFileBackend(t *testing.T) {
	fdsBefore := openFDs(t)
	dir := t.TempDir()
	eng, err := diskfile.Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d := extmem.NewDiskWithBackend(cfg, eng)
	f := d.NewFile(2)
	fill(f, 10*cfg.B, 11)
	base := d.Stats().IOs()
	d.SetChargeBudget(base + 3)
	pruned, err := d.CatchAbort(func() error {
		w := f.NewWriter()
		for i := 0; i < 10_000; i++ {
			w.Append([]int64{int64(i), int64(i)})
		}
		w.Close()
		return nil
	})
	if err != nil || !pruned {
		t.Fatalf("CatchAbort = (%v, %v), want abort", pruned, err)
	}
	if got := d.Stats().IOs(); got != base+3 {
		t.Fatalf("aborted run charged %d, want watermark %d", got, base+3)
	}
	// The ledger must have aborted in lockstep with the stats.
	assertParity(t, d)
	// No torn blocks: a full charged scan re-verifies every frame against
	// the image, including the frame the abort cut through.
	r := f.NewReader()
	n := 0
	for tup := r.Next(); tup != nil; tup = r.Next() {
		n++
	}
	if n != f.Len() {
		t.Fatalf("scan saw %d tuples, file has %d", n, f.Len())
	}
	assertParity(t, d)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if ents, err := os.ReadDir(dir); err == nil && len(ents) != 0 {
		t.Fatalf("engine left %d temp files in %s", len(ents), dir)
	}
	if after := openFDs(t); after > fdsBefore {
		t.Fatalf("leaked file descriptors: %d -> %d", fdsBefore, after)
	}
}

// openFDs counts this process's open descriptors (linux); skips elsewhere.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		if runtime.GOOS != "linux" {
			t.Skip("fd accounting needs /proc")
		}
		t.Fatalf("read /proc/self/fd: %v", err)
	}
	return len(ents)
}

// identityScript drives a fixed sequence of mutations and records the
// version/content-identity transitions it observes. Absolute ContentID values
// come from a process-global counter and differ run to run; the trace records
// the relations (bumped / kept / diverged) instead, which are the semantics
// opcache keying depends on.
func identityScript(d *extmem.Disk) []string {
	var trace []string
	obs := func(tag string, f *extmem.File) {
		trace = append(trace, fmt.Sprintf("%s v=%d", tag, f.Version()))
	}
	f := d.NewFile(1)
	obs("new", f)
	w := f.NewWriter()
	for i := 0; i < 10; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	obs("append10", f)
	clone := f.CloneTo(d)
	trace = append(trace, fmt.Sprintf("clone shares id=%v v=%d", clone.ContentID() == f.ContentID(), clone.Version()))
	snap := clone.Snapshot()
	trace = append(trace, fmt.Sprintf("snap shares id=%v v=%d", snap.ContentID() == clone.ContentID(), snap.Version()))
	w = clone.NewWriter()
	w.Append([]int64{99})
	w.Close()
	trace = append(trace, fmt.Sprintf("clone diverged id=%v v=%d", clone.ContentID() != f.ContentID(), clone.Version()))
	trace = append(trace, fmt.Sprintf("snap kept id=%v v=%d", snap.ContentID() == f.ContentID(), snap.Version()))
	f.Truncate()
	trace = append(trace, fmt.Sprintf("truncate kept id=%v v=%d", f.ContentID() == snap.ContentID(), f.Version()))
	w = f.NewWriter()
	w.Append([]int64{7})
	w.Close()
	obs("rewrite", f)
	reclone := snap.CloneTo(d)
	trace = append(trace, fmt.Sprintf("replay clone shares id=%v v=%d", reclone.ContentID() == snap.ContentID(), reclone.Version()))
	return trace
}

// TestVersionContentIDBackendIndependent pins the identity semantics the
// operator memo keys on — Writer and Truncate bump, clones and replay clones
// preserve, diverging aliases split — to be byte-identical across backends.
func TestVersionContentIDBackendIndependent(t *testing.T) {
	sim := extmem.NewDisk(cfg)
	file, _ := newFileDisk(t, "")
	simTrace := identityScript(sim)
	fileTrace := identityScript(file)
	if len(simTrace) != len(fileTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(simTrace), len(fileTrace))
	}
	for i := range simTrace {
		if simTrace[i] != fileTrace[i] {
			t.Fatalf("identity trace diverges at step %d:\n  sim:  %s\n  file: %s", i, simTrace[i], fileTrace[i])
		}
	}
}

// TestOpcacheHitsBackendIndependent proves memo behaviour does not depend on
// the storage engine: the same repeated sort hits on both backends, replays
// the same charges, and returns the same rows.
func TestOpcacheHitsBackendIndependent(t *testing.T) {
	type outcome struct {
		hits, misses int64
		stats        extmem.Stats
		rows         []int64
	}
	run := func(d *extmem.Disk) outcome {
		opcache.Enable(d)
		f := d.NewFile(2)
		fill(f, 30*cfg.B, 12)
		s1, err := extsort.SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatalf("sort: %v", err)
		}
		s2, err := extsort.SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatalf("re-sort: %v", err)
		}
		if got, want := len(s2.Raw()), len(s1.Raw()); got != want {
			t.Fatalf("hit returned %d cells, miss returned %d", got, want)
		}
		ms := opcache.Of(d).Stats()
		rows := append([]int64(nil), s2.Raw()...)
		return outcome{hits: ms.Hits, misses: ms.Misses, stats: d.Stats(), rows: rows}
	}
	sim := run(extmem.NewDisk(cfg))
	fd, _ := newFileDisk(t, "")
	file := run(fd)
	if sim.hits != file.hits || sim.misses != file.misses {
		t.Fatalf("memo behaviour differs: sim hits=%d misses=%d, file hits=%d misses=%d",
			sim.hits, sim.misses, file.hits, file.misses)
	}
	if sim.hits == 0 {
		t.Fatal("repeated sort did not hit the memo")
	}
	if sim.stats != file.stats {
		t.Fatalf("charged stats differ: sim %v, file %v", sim.stats, file.stats)
	}
	if len(sim.rows) != len(file.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(sim.rows), len(file.rows))
	}
	for i := range sim.rows {
		if sim.rows[i] != file.rows[i] {
			t.Fatalf("rows diverge at cell %d", i)
		}
	}
	// The hit replayed charges: the file disk's ledger must show them on the
	// replayed side, with parity intact.
	x := fd.Transfers()
	if x.ReplayedReads+x.ReplayedWrites == 0 {
		t.Fatal("memo hit produced no replayed transfers")
	}
	assertParity(t, fd)
}

// scanSum drives a full charged scan of f and returns a checksum of every
// cell read, so two runs can be compared for bit-identical emission.
func scanSum(f *extmem.File) (n int, sum int64) {
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
		n++
		for _, c := range tup {
			sum = sum*31 + c
		}
	}
	return n, sum
}

// TestTransientFaultsPathIdentical drives the same workload — bulk load,
// external sort, full scan — through the file engine with and without
// injected transient faults. Inline retries must keep the charged stats, the
// emitted cells, and the seam ledger bit-identical, and the engine must
// observe exactly the performed transfers.
func TestTransientFaultsPathIdentical(t *testing.T) {
	type outcome struct {
		n     int
		sum   int64
		stats extmem.Stats
	}
	run := func(plan *extmem.FaultPlan) (outcome, *extmem.Disk, *diskfile.Engine) {
		eng, err := diskfile.Open("", cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { eng.Close() })
		d := extmem.NewDiskWithBackend(cfg, eng)
		d.SetFaultPlan(plan)
		f := d.NewFile(2)
		fill(f, 48*cfg.B, 13)
		s, err := extsort.SortCols(f, []int{0, 1})
		if err != nil {
			t.Fatalf("sort under faults: %v", err)
		}
		n, sum := scanSum(s)
		return outcome{n: n, sum: sum, stats: d.Stats()}, d, eng
	}
	ref, _, _ := run(nil)
	plan := &extmem.FaultPlan{Seed: 99, Rate: 0.05}
	got, d, eng := run(plan)
	if got != ref {
		t.Fatalf("faulted run diverged: %+v vs %+v", got, ref)
	}
	fs := d.FaultStats()
	if fs.Transient == 0 {
		t.Fatalf("plan injected no faults: %+v", fs)
	}
	assertParity(t, d)
	// A model retry re-issues the transfer inside the charge that faulted,
	// so the engine sees each performed transfer exactly once.
	ds, x := eng.DeviceStats(), d.Transfers()
	if ds.BilledReads != x.Reads || ds.BilledWrites != x.Writes {
		t.Fatalf("engine billed %d/%d, ledger performed %d/%d, retries %d/%d",
			ds.BilledReads, ds.BilledWrites, x.Reads, x.Writes, fs.RetryReads, fs.RetryWrites)
	}
}

// TestPermanentFaultPathSurfacesTyped injects an unrecoverable fault
// mid-workload on the file engine: CatchAbort must hand back the typed
// *FaultError, and the engine must come out consistent — the pre-fault data
// scans back fully verified and the engine flushes and closes clean.
func TestPermanentFaultPathSurfacesTyped(t *testing.T) {
	eng, err := diskfile.Open("", cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d := extmem.NewDiskWithBackend(cfg, eng)
	f := d.NewFile(2)
	fill(f, 10*cfg.B, 14)
	d.SetFaultPlan(&extmem.FaultPlan{PermanentAt: d.Stats().IOs() + 5})
	pruned, err := d.CatchAbort(func() error {
		g := d.NewFile(2)
		fill(g, 50*cfg.B, 15)
		return nil
	})
	if pruned || err == nil {
		t.Fatalf("CatchAbort = (%v, %v), want permanent fault", pruned, err)
	}
	var fe *extmem.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("abort error %v is not a FaultError", err)
	}
	d.SetFaultPlan(nil)
	assertParity(t, d)
	// The fault fired before its charge was applied, so nothing can be torn:
	// the pre-fault file re-verifies in full.
	if n, _ := scanSum(f); n != f.Len() {
		t.Fatalf("post-fault scan saw %d tuples, file has %d", n, f.Len())
	}
	assertParity(t, d)
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush after fault: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close after fault: %v", err)
	}
}

// TestDeviceErrorSurfaces makes a pread fail for real (the backing file is
// truncated behind the engine's back) and checks the failure surfaces as a
// panic at the charged read, naming the failed transfer.
func TestDeviceErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	eng, err := diskfile.Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	d := extmem.NewDiskWithBackend(cfg, eng)
	f := d.NewFile(2)
	fill(f, 32*cfg.B, 18)
	if err := os.Truncate(eng.Path(), 0); err != nil {
		t.Fatalf("truncate backing file: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("failed device read was never surfaced")
		}
		if msg := fmt.Sprint(r); !containsAll(msg, "diskfile: pread") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
}

// BenchmarkEngineWriteRange measures the charged write path end to end: one
// 256-block sequential load per iteration.
func BenchmarkEngineWriteRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := diskfile.Open("", cfg)
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		d := extmem.NewDiskWithBackend(cfg, eng)
		f := d.NewFile(2)
		fill(f, 256*cfg.B, 20)
		if err := eng.Flush(); err != nil {
			b.Fatalf("Flush: %v", err)
		}
		if err := eng.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}
}

// BenchmarkEngineReadRangeSeq measures sequential charged scans: one pread
// and one verification per block, 128 blocks per pass.
func BenchmarkEngineReadRangeSeq(b *testing.B) {
	eng, err := diskfile.Open("", cfg)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	d := extmem.NewDiskWithBackend(cfg, eng)
	f := d.NewFile(2)
	fill(f, 128*cfg.B, 21)
	if err := eng.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := f.NewReader()
		for tup := r.Next(); tup != nil; tup = r.Next() {
		}
	}
	b.StopTimer()
	if err := eng.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

func TestAnonymousBackingFileHasNoPath(t *testing.T) {
	eng, err := diskfile.Open("", cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if eng.Path() != "" {
		t.Fatalf("anonymous engine kept a path: %q", eng.Path())
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
