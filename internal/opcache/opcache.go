// Package opcache is a charge-replay operator memo: a table of completed
// deterministic operator runs, keyed on the operator kind, its parameters,
// and the identity of its input tuple sequences, holding the recorded output
// files and the charge tape of the run.
//
// Every deterministic operator in this repository — sorts, semijoins,
// projections, materializations, pairwise joins — has simulated cost and
// output that are a pure function of its inputs' contents and its parameters:
// run boundaries, merge grouping, and every block charge follow mechanically
// from the tuple counts and values. So once such an operator has run, an
// identical later run can be answered by cloning the recorded output files
// (free, like any CloneTo) and replaying the recorded charge tape into the
// disk's accountant, leaving every counter — reads, writes, hi-water, and the
// per-phase breakdown — bit-identical to redoing the work while costing
// near-zero host time. The exhaustive strategy re-executes the same prefix of
// peel steps across branches; with the memo attached, the entire shared
// prefix replays.
//
// Entries are found two ways. The fast path looks up a comparable struct key:
// kind, params, M and B, the aux length and hash, the input count, and each
// input window's (arity, ContentID, Version, Off, N) in a fixed two-slot
// array, so a lookup formats and allocates nothing. Content identity survives
// CloneTo, so the same relation processed on every branch hits from the
// second branch on, even when a branch reads it through a clone an earlier
// replay returned. The aux values are compared on every fast hit. The slow
// path hashes the input windows' contents and byte-verifies against the
// candidate's pinned snapshots, catching files rebuilt with identical
// contents on every branch (restriction copies, semijoin outputs); a verified
// slow hit registers the new identity alias so repeats take the fast path.
// Verification makes hash collisions harmless.
//
// Mutation safety: Writer.Append and File.Truncate bump a file's Version, so
// entries recorded against an older version simply never hit again. The
// pinned snapshots stay valid because algorithm files are append-only —
// appends past a snapshot's pinned window never touch the cells it covers.
//
// Suspension: lookups are allowed while the disk's charging is suspended —
// tape replay respects suspension, so a replayed hit charges exactly what a
// real suspended run would (nothing) — but entries are only recorded from
// non-suspended runs, since a suspended run observes an empty tape.
//
// Charge budgets: replayed charges go through the disk's normal charging
// paths, so an armed charge budget (extmem.SetChargeBudget) advances toward
// its watermark during replay exactly as it would during the real run, and a
// replay that crosses it aborts mid-tape with extmem.ErrBudgetExceeded. The
// abort leaves the memo untouched (the entry stays; only the caller's run
// unwinds), and a recording cut short by a budget abort is discarded, never
// stored.
//
// Lifetime: a memo keeps every entry it records until its disk is done, so
// the disk's files share the memo's lifetime and are carved from slabs.
package opcache

import (
	"sync"

	"acyclicjoin/internal/extmem"
)

// Stats reports memo effectiveness counters. The counters are host-side
// diagnostics only — they never feed back into simulated I/O.
type Stats struct {
	// Hits and Misses count lookups on memoized operator paths.
	Hits, Misses int64
	// Evictions is always 0.
	//
	// Deprecated: a memo keeps every entry it records.
	Evictions int64
	// BytesReplayed totals the output bytes served by cloning instead of
	// re-running (8 bytes per stored int64 cell).
	BytesReplayed int64
}

// Limits is kept so that callers of EnableLimited still build.
//
// Deprecated: it configures nothing; a memo keeps every entry it records.
type Limits struct{}

// Input names one input tuple window of an operator: tuples [Off, Off+N) of
// File. Operators over whole files use In.
type Input struct {
	File *extmem.File
	Off  int
	N    int
}

// In wraps a whole file as an Input window.
func In(f *extmem.File) Input { return Input{File: f, N: f.Len()} }

// Op identifies one deterministic operator application. Kind and Params must
// determine the operator's behaviour completely given the inputs; Aux carries
// value parameters that are data rather than structure (e.g. a semijoin's
// probe value set, in canonical order) and is verified on every hit. An op
// has at most two Inputs; Do panics on more.
type Op struct {
	Kind   string
	Params string
	Inputs []Input
	Aux    []int64
}

// inputSnap pins one input window for slow-path verification. align is the
// window's offset within its first block: a scan charges one read per block
// the window touches, so equal contents at a different alignment can cost a
// different number of blocks and must not match.
type inputSnap struct {
	arity int
	align int
	data  []int64 // the window's cells, capacity-pinned
}

// maxInputs is the most inputs an Op may have: the fast-path key holds a
// fixed array of that many windows.
const maxInputs = 2

// window is one input window's identity in a key.
type window struct {
	arity    int
	cid, ver uint64
	off, n   int
}

// key is the fast-path identity of an op on a disk: everything that
// determines the run, with the aux values and the input contents stood in
// for by a hash and by content identities.
type key struct {
	kind, params string
	m, b         int
	auxLen       int
	auxHash      uint64
	nIn          int
	in           [maxInputs]window
}

// entry records one operator run.
type entry struct {
	ins  []inputSnap
	aux  []int64
	outs []*extmem.File // output snapshots, CloneTo'd on every hit
	meta []int64
	tape extmem.ChargeTape
}

// Memo is a charge-replay operator memo. Attach it to a disk with Enable.
// It is used from the disk's goroutine; mu lets Stats be read from any
// goroutine.
type Memo struct {
	mu     sync.Mutex
	byID   map[key]*entry
	byHash map[uint64][]*entry
	stats  Stats
}

// Enable attaches a fresh memo to d (replacing any previous one) and returns
// it.
func Enable(d *extmem.Disk) *Memo {
	m := &Memo{byID: map[key]*entry{}, byHash: map[uint64][]*entry{}}
	attach(d, m)
	return m
}

// EnableLimited attaches a fresh memo to d and returns it, like Enable.
//
// Deprecated: use Enable; a memo keeps every entry it records.
func EnableLimited(d *extmem.Disk, _ Limits) *Memo { return Enable(d) }

// Disable detaches any memo from d.
func Disable(d *extmem.Disk) { attach(d, nil) }

// attach sets d's memo (nil detaches it) and decides whether d carves file
// data from slabs. A memo keeps every operator output until the disk is
// done, so the disk's files already share its lifetime and can be carved
// from slabs freed in one step (extmem.Disk.Recycle). Without a memo,
// outputs die mid-run and each file keeps its own allocation, which the GC
// frees as soon as the file is dropped.
func attach(d *extmem.Disk, m *Memo) {
	if m != nil {
		d.SetOpMemo(m)
	} else {
		d.SetOpMemo(nil) // an untyped nil, so OpMemo reads as detached
	}
	d.SetSlabs(m != nil)
}

// Of returns the memo attached to d, or nil.
func Of(d *extmem.Disk) *Memo {
	if m, ok := d.OpMemo().(*Memo); ok {
		return m
	}
	return nil
}

// Stats returns a snapshot of the effectiveness counters.
func (m *Memo) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Do memoizes one deterministic operator application on disk d. If no memo is
// attached to d, run executes directly. On a hit, the recorded outputs are
// cloned to d and the recorded charge tape is replayed — bit-identical
// accounting to executing run. On a miss, run executes under a charge-tape
// recorder and the result is stored (unless run fails or d is suspended).
//
// run must be deterministic in (op, input contents): same outputs, same
// charges, every time. It returns the operator's output files (created on d)
// and optional int64 metadata (returned verbatim on replay).
func Do(d *extmem.Disk, op Op, run func() ([]*extmem.File, []int64, error)) ([]*extmem.File, []int64, error) {
	if len(op.Inputs) > maxInputs {
		panic("opcache: an Op has at most two inputs")
	}
	if m := Of(d); m != nil {
		return m.do(d, op, run)
	}
	return run()
}

func (m *Memo) do(d *extmem.Disk, op Op, run func() ([]*extmem.File, []int64, error)) ([]*extmem.File, []int64, error) {
	id := keyOf(d, op)
	m.mu.Lock()
	e, ok := m.byID[id]
	if ok && !equalData(e.aux, op.Aux) {
		// The aux hash in the key collided; treat as a miss.
		e, ok = nil, false
	}
	var h uint64
	if !ok {
		// Slow path: find by content hash and byte-verify.
		h = hashOp(id, op)
		for _, cand := range m.byHash[h] {
			if verify(cand, op, id.b) {
				m.byID[id] = cand // alias: future runs take the fast path
				e, ok = cand, true
				break
			}
		}
	}
	if ok {
		m.mu.Unlock()
		return m.replay(d, e)
	}
	m.stats.Misses++
	m.mu.Unlock()

	d.StartTape()
	taping := true
	defer func() {
		if taping {
			// run panicked — typically extmem.ErrBudgetExceeded unwinding a
			// pruned dry run. Pop and discard the partial tape so the recorder
			// stack stays balanced and nothing half-recorded is ever stored;
			// the memo is left exactly as it was for the aborted suffix.
			d.StopTape()
		}
	}()
	outs, meta, err := run()
	tape := d.StopTape()
	taping = false
	if err != nil || d.IsSuspended() {
		return outs, meta, err
	}
	m.store(d, op, id, h, outs, meta, tape)
	return outs, meta, err
}

// replay applies a recorded run to disk d: the tape (peak grab for the
// hi-water mark plus the recorded block charges, phase by phase) and a free
// clone of each output — the exact footprint of redoing the operator. A
// failing grab leaves the accountant in the same over-committed state a real
// run's failing grab would.
func (m *Memo) replay(d *extmem.Disk, e *entry) ([]*extmem.File, []int64, error) {
	if err := d.ReplayTape(e.tape); err != nil {
		return nil, nil, err
	}
	outs := make([]*extmem.File, len(e.outs))
	var bytes int64
	for i, o := range e.outs {
		outs[i] = o.CloneTo(d)
		bytes += int64(len(o.Raw())) * 8
	}
	var meta []int64
	if e.meta != nil {
		meta = append([]int64(nil), e.meta...)
	}
	m.mu.Lock()
	m.stats.Hits++
	m.stats.BytesReplayed += bytes
	m.mu.Unlock()
	return outs, meta, nil
}

// store records a completed run. hash is the op's content hash from the
// preceding slow-path miss (zero only if the fast path matched, which cannot
// reach here).
func (m *Memo) store(d *extmem.Disk, op Op, id key, hash uint64, outs []*extmem.File, meta []int64, tape extmem.ChargeTape) {
	e := &entry{tape: tape}
	if len(op.Aux) > 0 {
		// The entry lives as long as d, so its aux copy can share d's slabs.
		e.aux = append(d.Carve(len(op.Aux)), op.Aux...)
	}
	for _, in := range op.Inputs {
		e.ins = append(e.ins, inputSnap{arity: in.File.Arity(), align: in.Off % d.B(), data: windowCells(in)})
	}
	for _, o := range outs {
		e.outs = append(e.outs, o.Snapshot())
	}
	if meta != nil {
		e.meta = append([]int64(nil), meta...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byID[id]; dup {
		return // an aux-hash collision: the entry already under id stays
	}
	m.byID[id] = e
	m.byHash[hash] = append(m.byHash[hash], e)
}

// verify byte-compares a candidate entry against an op on a disk with block
// size b (the hash matched).
func verify(e *entry, op Op, b int) bool {
	if len(e.ins) != len(op.Inputs) || !equalData(e.aux, op.Aux) {
		return false
	}
	for i, in := range op.Inputs {
		if e.ins[i].arity != in.File.Arity() || e.ins[i].align != in.Off%b || !equalData(e.ins[i].data, windowCells(in)) {
			return false
		}
	}
	return true
}

// keyOf builds the fast-path identity key of op on d.
func keyOf(d *extmem.Disk, op Op) key {
	k := key{kind: op.Kind, params: op.Params, m: d.M(), b: d.B(),
		auxLen: len(op.Aux), auxHash: hashCells(op.Aux), nIn: len(op.Inputs)}
	for i, in := range op.Inputs {
		k.in[i] = window{arity: in.File.Arity(), cid: in.File.ContentID(),
			ver: in.File.Version(), off: in.Off, n: in.N}
	}
	return k
}

// hashOp is the slow-path content hash over everything that determines the
// run: op's key k without the input identities, and the input windows'
// block alignments and cells.
func hashOp(k key, op Op) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(k.kind); i++ {
		h = (h ^ uint64(k.kind[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(k.params); i++ {
		h = (h ^ uint64(k.params[i])) * prime64
	}
	h = (h ^ uint64(k.m)) * prime64
	h = (h ^ uint64(k.b)) * prime64
	h = (h ^ k.auxHash) * prime64
	h = (h ^ uint64(k.nIn)) * prime64
	for i, in := range op.Inputs {
		h = (h ^ uint64(k.in[i].arity)) * prime64
		h = (h ^ uint64(in.Off%k.b)) * prime64
		h = (h ^ hashCells(windowCells(in))) * prime64
	}
	return h
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashCells hashes a cell slice word-wise, FNV-1a style, in four independent
// lanes so consecutive multiplies do not wait on each other, and finishes
// with murmur3's fmix64 so every bit of the lanes reaches the low bits. The
// hash only has to bucket well: every match is verified.
func hashCells(cells []int64) uint64 {
	h0, h1, h2, h3 := uint64(offset64), uint64(offset64)+1, uint64(offset64)+2, uint64(offset64)+3
	i := 0
	for ; i+4 <= len(cells); i += 4 {
		h0 = (h0 ^ uint64(cells[i])) * prime64
		h1 = (h1 ^ uint64(cells[i+1])) * prime64
		h2 = (h2 ^ uint64(cells[i+2])) * prime64
		h3 = (h3 ^ uint64(cells[i+3])) * prime64
	}
	for ; i < len(cells); i++ {
		h0 = (h0 ^ uint64(cells[i])) * prime64
	}
	h := uint64(len(cells))
	for _, l := range [4]uint64{h0, h1, h2, h3} {
		h = (h ^ l) * prime64
		h = (h ^ h>>33) * 0xff51afd7ed558ccd
		h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

// windowCells returns the capacity-pinned cell slice of an input window.
func windowCells(in Input) []int64 {
	slot := in.File.Slot()
	lo := in.Off * slot
	hi := (in.Off + in.N) * slot
	return in.File.Raw()[lo:hi:hi]
}

func equalData(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
