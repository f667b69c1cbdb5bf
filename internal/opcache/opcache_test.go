package opcache_test

import (
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

func fill(d *extmem.Disk, arity int, rows [][]int64) *extmem.File {
	f := d.NewFile(arity)
	w := f.NewWriter()
	for _, r := range rows {
		w.Append(r)
	}
	w.Close()
	return f
}

// copyOp is a stand-in deterministic operator: scan the input window and
// write it back out, returning the tuple count as metadata.
func copyOp(d *extmem.Disk, in opcache.Input) ([]*extmem.File, []int64, error) {
	out := d.NewFile(in.File.Arity())
	w := out.NewWriter()
	r := in.File.NewRangeReader(in.Off, in.N)
	for t := r.Next(); t != nil; t = r.Next() {
		w.Append(t)
	}
	w.Close()
	return []*extmem.File{out}, []int64{int64(out.Len())}, nil
}

func doCopy(d *extmem.Disk, in opcache.Input) ([]*extmem.File, []int64, error) {
	return opcache.Do(d, opcache.Op{Kind: "copy", Inputs: []opcache.Input{in}},
		func() ([]*extmem.File, []int64, error) { return copyOp(d, in) })
}

func rows(n int) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = []int64{int64(i), int64(n - i)}
	}
	return out
}

// A memo hit must leave every counter — reads, writes, hi-water, per-phase —
// and every output byte exactly as re-running the operator would.
func TestDoReplayBitIdentical(t *testing.T) {
	run := func(memo bool) (extmem.Stats, map[string]extmem.Stats, []int64, []int64) {
		d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
		d.EnablePhases()
		if memo {
			opcache.Enable(d)
		}
		f := fill(d, 2, rows(23))
		d.ResetStats()
		d.ResetPhases()
		outs1, _, err := doCopy(d, opcache.In(f))
		if err != nil {
			t.Fatal(err)
		}
		outs2, meta, err := doCopy(d, opcache.In(f))
		if err != nil {
			t.Fatal(err)
		}
		_ = outs1
		return d.Stats(), d.PhaseStats(), outs2[0].Raw(), meta
	}
	stOn, phOn, outOn, metaOn := run(true)
	stOff, phOff, outOff, metaOff := run(false)
	if stOn != stOff {
		t.Fatalf("stats diverge: memo %+v, direct %+v", stOn, stOff)
	}
	if !reflect.DeepEqual(phOn, phOff) {
		t.Fatalf("phase stats diverge: memo %+v, direct %+v", phOn, phOff)
	}
	if !equal(outOn, outOff) {
		t.Fatalf("outputs diverge")
	}
	if !equal(metaOn, metaOff) {
		t.Fatalf("meta diverges: %v vs %v", metaOn, metaOff)
	}
}

func equal(a, b []int64) bool {
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

func TestDoWithoutMemoRunsDirect(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	f := fill(d, 2, rows(5))
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	if opcache.Of(d) != nil {
		t.Fatal("no memo should be attached")
	}
}

func TestHitMissCounters(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(6))
	for i := 0; i < 3; i++ {
		if _, _, err := doCopy(d, opcache.In(f)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.BytesReplayed != 2*6*2*8 {
		t.Fatalf("bytes replayed = %d, want %d", st.BytesReplayed, 2*6*2*8)
	}
	// A different kind is a different key.
	if _, _, err := opcache.Do(d, opcache.Op{Kind: "copy2", Inputs: []opcache.Input{opcache.In(f)}},
		func() ([]*extmem.File, []int64, error) { return copyOp(d, opcache.In(f)) }); err != nil {
		t.Fatal(err)
	}
	if st = m.Stats(); st.Misses != 2 {
		t.Fatalf("misses after new kind = %d, want 2", st.Misses)
	}
}

// Distinct windows of the same file are distinct keys.
func TestWindowsAreDistinctKeys(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(10))
	o1, _, err := doCopy(d, opcache.Input{File: f, Off: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	o2, _, err := doCopy(d, opcache.Input{File: f, Off: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
	if equal(o1[0].Raw(), o2[0].Raw()) {
		t.Fatal("distinct windows produced identical output")
	}
}

// Two files built independently with identical contents share one entry via
// the content-hash path, and the registered alias makes repeats fast.
func TestContentHashHitAcrossFiles(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f1 := fill(d, 2, rows(8))
	f2 := fill(d, 2, rows(8))
	if f1.ContentID() == f2.ContentID() {
		t.Fatal("distinct files share a content ID")
	}
	if _, _, err := doCopy(d, opcache.In(f1)); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if _, _, err := doCopy(d, opcache.In(f2)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	st := d.Stats()
	d.ResetStats()
	if _, _, err := doCopy(d, opcache.In(f2)); err != nil {
		t.Fatal(err)
	}
	if d.Stats() != st {
		t.Fatalf("fast-path replay charged %+v, slow-path %+v", d.Stats(), st)
	}
}

// The memo hits across CloneTo views (content identity survives the clone).
func TestHitAcrossClones(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(5))
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	clone := f.CloneTo(d)
	outs, _, err := doCopy(d, opcache.In(clone))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (clone should hit the original's entry)", st.Hits)
	}
	if outs[0].Disk() != d {
		t.Fatal("replayed output not cloned to the caller's disk")
	}
}

// Appending bumps the version: stale entries never hit.
func TestInvalidationOnAppend(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(4))
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	w := f.NewWriter()
	w.Append([]int64{99, 99})
	w.Close()
	outs, _, err := doCopy(d, opcache.In(f))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Len() != 5 {
		t.Fatalf("post-append output stale: len %d, want 5", outs[0].Len())
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
}

// Aux values distinguish otherwise-identical ops and are verified on hits.
func TestAuxDistinguishesOps(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(6))
	do := func(aux []int64) {
		if _, _, err := opcache.Do(d, opcache.Op{Kind: "copy", Inputs: []opcache.Input{opcache.In(f)}, Aux: aux},
			func() ([]*extmem.File, []int64, error) { return copyOp(d, opcache.In(f)) }); err != nil {
			t.Fatal(err)
		}
	}
	do([]int64{1, 2})
	do([]int64{1, 2})
	do([]int64{1, 3})
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
}

// Suspended runs must not record entries: their tapes are empty, which would
// corrupt later replays into charged contexts.
func TestSuspendedRunsNotStored(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(6))
	restore := d.Suspend()
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	restore()
	if st := m.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	d.ResetStats()
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().IOs() == 0 {
		t.Fatal("post-suspend run charged nothing: an empty-tape entry leaked")
	}
}

// The memo keeps every entry it records: after three distinct ops, each one
// replays on its repeat, charging exactly what its recording run charged.
func TestLRUEvictionByEntries(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	fs := []*extmem.File{fill(d, 2, rows(3)), fill(d, 2, rows(4)), fill(d, 2, rows(5))}
	stats := make([]extmem.Stats, len(fs))
	for i, f := range fs {
		before := d.Stats()
		if _, _, err := doCopy(d, opcache.In(f)); err != nil {
			t.Fatal(err)
		}
		stats[i] = d.Stats().Sub(before)
	}
	for i, f := range fs {
		before := d.Stats()
		if _, _, err := doCopy(d, opcache.In(f)); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Sub(before); got != stats[i] {
			t.Fatalf("replay of op %d charged %+v, recording %+v", i, got, stats[i])
		}
	}
	if st := m.Stats(); st.Hits != 3 || st.Misses != 3 || st.Evictions != 0 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 3/3/0", st.Hits, st.Misses, st.Evictions)
	}
}

// A hit hands out a clone: appending to a replayed output leaves the entry
// as recorded, so the next hit replays the original tuples.
func TestLRUTouchOnHit(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(5))
	want, _, err := doCopy(d, opcache.In(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		outs, _, err := doCopy(d, opcache.In(f))
		if err != nil {
			t.Fatal(err)
		}
		if !equal(outs[0].Raw(), want[0].Raw()) {
			t.Fatalf("hit %d replayed %v, want %v", i, outs[0].Raw(), want[0].Raw())
		}
		w := outs[0].NewWriter()
		w.Append([]int64{99, 99})
		w.Close()
	}
	if st := m.Stats(); st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 2/1/0", st.Hits, st.Misses, st.Evictions)
	}
}

// An entry's pinned input snapshot outlives its file's later appends: once
// the file grows, the old key never hits again, but a fresh file holding the
// old contents still matches the retained snapshot on the slow path.
func TestEvictionByTupleBudget(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(6))
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	w := f.NewWriter()
	for i := 0; i < 30; i++ {
		w.Append([]int64{99, int64(i)})
	}
	w.Close()
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	outs, _, err := doCopy(d, opcache.In(fill(d, 2, rows(6))))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Len() != 6 {
		t.Fatalf("slow-path hit replayed %d tuples, want 6", outs[0].Len())
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 1/2/0", st.Hits, st.Misses, st.Evictions)
	}
}

// An entry holding more tuples than the machine's memory M is kept and
// replays like any other.
func TestOversizedEntryKept(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f := fill(d, 2, rows(5*d.M()))
	for i := 0; i < 2; i++ {
		outs, _, err := doCopy(d, opcache.In(f))
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Len() != 5*d.M() {
			t.Fatalf("run %d output %d tuples, want %d", i, outs[0].Len(), 5*d.M())
		}
	}
	if st := m.Stats(); st.Hits != 1 || st.Evictions != 0 {
		t.Fatalf("hits/evictions = %d/%d, want 1/0 (oversized entry should stay resident)", st.Hits, st.Evictions)
	}
}

// A slow-path hit registers an alias of the one recorded entry: the aliased
// file and the original both keep hitting it, later entries leave it in
// place, and no repeat records a second entry.
func TestEvictionDropsAliases(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	m := opcache.Enable(d)
	f1 := fill(d, 2, rows(6))
	f2 := fill(d, 2, rows(6)) // same contents: slow-path alias
	mustCopy := func(f *extmem.File) {
		if _, _, err := doCopy(d, opcache.In(f)); err != nil {
			t.Fatal(err)
		}
	}
	mustCopy(f1)
	mustCopy(f2) // slow-path hit: registers f2's key
	mustCopy(fill(d, 2, rows(7)))
	d.ResetStats()
	mustCopy(f2) // fast-path hit through the alias
	viaAlias := d.Stats()
	d.ResetStats()
	mustCopy(f1)
	if d.Stats() != viaAlias {
		t.Fatalf("original key replayed %+v, alias %+v", d.Stats(), viaAlias)
	}
	if st := m.Stats(); st.Hits != 3 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 3/2/0", st.Hits, st.Misses, st.Evictions)
	}
}

// Multi-output ops replay every output and the metadata verbatim.
func TestMultiOutputAndMeta(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	opcache.Enable(d)
	f := fill(d, 2, rows(8))
	split := func() ([]*extmem.File, []int64, error) {
		lo, hi := d.NewFile(2), d.NewFile(2)
		wl, wh := lo.NewWriter(), hi.NewWriter()
		r := f.NewReader()
		for t := r.Next(); t != nil; t = r.Next() {
			if t[0] < 4 {
				wl.Append(t)
			} else {
				wh.Append(t)
			}
		}
		wl.Close()
		wh.Close()
		return []*extmem.File{lo, hi}, []int64{int64(lo.Len()), int64(hi.Len())}, nil
	}
	op := opcache.Op{Kind: "split", Params: "4", Inputs: []opcache.Input{opcache.In(f)}}
	o1, m1, err := opcache.Do(d, op, split)
	if err != nil {
		t.Fatal(err)
	}
	o2, m2, err := opcache.Do(d, op, split)
	if err != nil {
		t.Fatal(err)
	}
	if len(o2) != 2 || !equal(o1[0].Raw(), o2[0].Raw()) || !equal(o1[1].Raw(), o2[1].Raw()) {
		t.Fatal("replayed outputs diverge")
	}
	if !equal(m1, m2) {
		t.Fatalf("replayed meta diverges: %v vs %v", m1, m2)
	}
}

// A memo replay must advance the disk's charge-budget watermark exactly like
// a real run: a budget too small for the operator aborts mid-replay with the
// total clamped at the watermark, the memo entry survives the abort, and a
// later unbudgeted repeat still replays in full.
func TestReplayRespectsChargeBudget(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	opcache.Enable(d)
	f := fill(d, 2, rows(23))
	d.ResetStats()

	// Record the operator, measuring its true cost.
	if _, _, err := doCopy(d, opcache.In(f)); err != nil {
		t.Fatal(err)
	}
	cost := d.Stats().IOs()
	if cost < 2 {
		t.Fatalf("operator too cheap to test: %d IOs", cost)
	}

	// Budget the replay below the operator's cost: it must abort, landing
	// exactly on the watermark.
	before := d.Stats().IOs()
	d.SetChargeBudget(before + cost - 1)
	aborted, err := d.CatchBudgetExceeded(func() error {
		_, _, e := doCopy(d, opcache.In(f))
		return e
	})
	d.ClearChargeBudget()
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v, want clean mid-replay abort", aborted, err)
	}
	if got := d.Stats().IOs() - before; got != cost-1 {
		t.Fatalf("aborted replay charged %d, want exactly %d (clamped)", got, cost-1)
	}

	// The memo entry is untouched: an unbudgeted repeat replays at full cost
	// with identical output.
	hitsBefore := opcache.Of(d).Stats().Hits
	before = d.Stats().IOs()
	outs, _, err := doCopy(d, opcache.In(f))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().IOs() - before; got != cost {
		t.Fatalf("post-abort replay charged %d, want %d", got, cost)
	}
	if outs[0].Len() != 23 {
		t.Fatalf("post-abort replay output len = %d, want 23", outs[0].Len())
	}
	if hits := opcache.Of(d).Stats().Hits; hits != hitsBefore+1 {
		t.Fatalf("post-abort repeat was not a hit: %d -> %d", hitsBefore, hits)
	}
}

// An abort during a RECORDING run (memo miss) must discard the truncated
// tape: a later repeat re-runs the operator for real rather than replaying a
// partial recording.
func TestAbortedRecordingDiscarded(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	opcache.Enable(d)
	f := fill(d, 2, rows(23))
	d.ResetStats()

	d.SetChargeBudget(d.Stats().IOs() + 2)
	aborted, err := d.CatchBudgetExceeded(func() error {
		_, _, e := doCopy(d, opcache.In(f))
		return e
	})
	d.ClearChargeBudget()
	if !aborted || err != nil {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	if misses := opcache.Of(d).Stats().Misses; misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}

	// The repeat must be a miss again (nothing was stored) and complete.
	outs, _, err := doCopy(d, opcache.In(f))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Len() != 23 {
		t.Fatalf("repeat output len = %d, want 23", outs[0].Len())
	}
	cs := opcache.Of(d).Stats()
	if cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("stats after aborted recording = %+v, want second miss, no hits", cs)
	}
}

// A slow-path hit must match the input window's block alignment, not only
// its contents: a scan charges one read per block the window touches, so the
// same eight tuples cost two block reads at offset 0 and three at offset 1.
// Replaying the aligned run for the unaligned window would undercharge.
func TestSlowPathMatchesBlockAlignment(t *testing.T) {
	run := func(memo bool) extmem.Stats {
		d := extmem.NewDisk(extmem.Config{M: 32, B: 4})
		if memo {
			opcache.Enable(d)
		}
		var rs []tuple.Tuple
		for i := int64(0); i < 8; i++ {
			rs = append(rs, tuple.Tuple{i % 3, i})
		}
		restore := d.Suspend()
		aligned := relation.FromTuples(d, tuple.Schema{0, 1}, rs)
		shifted := relation.FromTuples(d, tuple.Schema{0, 1}, append([]tuple.Tuple{{9, 9}}, rs...))
		restore()
		if _, _, err := relation.SemijoinValues(aligned, 0, []int64{1}, 0); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		if _, _, err := relation.SemijoinValues(shifted.View(1, 8), 0, []int64{1}, 0); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}
	on, off := run(true), run(false)
	if off.Reads != 3 || off.Writes != 1 {
		t.Fatalf("memo-off run charged %+v, want 3 reads and 1 write", off)
	}
	if on != off {
		t.Fatalf("memo-on run charged %+v, memo-off %+v", on, off)
	}
}
