package extmem

import (
	"errors"
	"reflect"
	"testing"
)

// scanFile writes n single-column tuples and reads them back, generating a
// deterministic charge pattern.
func scanFile(d *Disk, n int) *File {
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < n; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	r := f.NewReader()
	for r.Next() != nil {
	}
	return f
}

// A recorded tape replayed on a fresh disk must reproduce the recorded run's
// counters exactly: reads, writes, hi-water, and the per-phase breakdown.
func TestTapeReplayBitIdentical(t *testing.T) {
	work := func(d *Disk) {
		scanFile(d, 10)
		d.WithPhase("sort", func() {
			scanFile(d, 7)
			_ = d.Grab(20)
			d.Release(20)
		})
		scanFile(d, 3)
	}
	rec := NewDisk(Config{M: 64, B: 4})
	rec.EnablePhases()
	rec.StartTape()
	work(rec)
	tape := rec.StopTape()

	replay := NewDisk(Config{M: 64, B: 4})
	replay.EnablePhases()
	if err := replay.ReplayTape(tape); err != nil {
		t.Fatal(err)
	}
	if replay.Stats() != rec.Stats() {
		t.Fatalf("stats diverge: replay %+v, recorded %+v", replay.Stats(), rec.Stats())
	}
	if !reflect.DeepEqual(replay.PhaseStats(), rec.PhaseStats()) {
		t.Fatalf("phase stats diverge: replay %+v, recorded %+v", replay.PhaseStats(), rec.PhaseStats())
	}
}

// Ambient charges (segment label "") must land under the replayer's current
// phase, while pushed phases replay absolutely — even when the pushed label
// equals the ambient one at recording time.
func TestTapeAmbientVsPushedPhase(t *testing.T) {
	rec := NewDisk(Config{M: 64, B: 4})
	rec.EnablePhases()
	rec.WithPhase("outer", func() {
		rec.StartTape()
		scanFile(rec, 4) // ambient: recorded as ""
		rec.WithPhase("outer", func() {
			scanFile(rec, 4) // pushed: recorded as absolute "outer"
		})
	})
	tape := rec.StopTape()
	if len(tape.Segments) != 2 || tape.Segments[0].Phase != "" || tape.Segments[1].Phase != "outer" {
		t.Fatalf("segments = %+v, want ambient then pushed \"outer\"", tape.Segments)
	}

	replay := NewDisk(Config{M: 64, B: 4})
	replay.EnablePhases()
	replay.WithPhase("elsewhere", func() {
		if err := replay.ReplayTape(tape); err != nil {
			t.Fatal(err)
		}
	})
	ph := replay.PhaseStats()
	reads0, writes0 := tape.Segments[0].Reads, tape.Segments[0].Writes
	if got := ph["elsewhere"]; got.Reads != reads0 || got.Writes != writes0 {
		t.Fatalf("ambient segment under \"elsewhere\" = %+v, want reads=%d writes=%d", got, reads0, writes0)
	}
	if got := ph["outer"]; got.Reads != tape.Segments[1].Reads || got.Writes != tape.Segments[1].Writes {
		t.Fatalf("pushed segment under \"outer\" = %+v, want %+v", got, tape.Segments[1])
	}
}

// Nested recorders: the outer tape must include everything the inner tape
// recorded, including an inner replay (the memo's nested-hit case).
func TestTapeNestedRecorders(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	d.StartTape() // outer
	scanFile(d, 4)
	d.StartTape() // inner
	scanFile(d, 8)
	inner := d.StopTape()
	// Replaying the inner tape while the outer recorder is live must be
	// captured by the outer recorder like a real re-run.
	if err := d.ReplayTape(inner); err != nil {
		t.Fatal(err)
	}
	outer := d.StopTape()

	ir, iw := inner.IOs()
	or, ow := outer.IOs()
	// outer = first scan (4 tuples: 1 write block + 1 read block) + inner + replayed inner
	if or != 2*ir+1 || ow != 2*iw+1 {
		t.Fatalf("outer reads/writes = %d/%d, want %d/%d", or, ow, 2*ir+1, 2*iw+1)
	}
}

// Tape peak is the delta above the memory level at StartTape, so replay
// reproduces the recorded hi-water at the same ambient level.
func TestTapePeakIsDelta(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	_ = d.Grab(10) // ambient memory held by the caller
	d.StartTape()
	_ = d.Grab(25)
	d.Release(25)
	tape := d.StopTape()
	if tape.Peak != 25 {
		t.Fatalf("peak = %d, want 25 (delta above ambient 10)", tape.Peak)
	}
	d.Release(10)

	d2 := NewDisk(Config{M: 64, B: 4})
	_ = d2.Grab(10)
	if err := d2.ReplayTape(tape); err != nil {
		t.Fatal(err)
	}
	if d2.Stats().MemHiWater != 35 {
		t.Fatalf("replayed hi-water = %d, want 35", d2.Stats().MemHiWater)
	}
	if d2.MemInUse() != 10 {
		t.Fatalf("replay leaked memory: in use %d, want 10", d2.MemInUse())
	}

	// A replay over the allowance fails and holds nothing.
	d3 := NewDisk(Config{M: 16, B: 4, MemFactor: 2}) // cap 32
	_ = d3.Grab(10)
	if err := d3.ReplayTape(tape); !errors.Is(err, ErrMemoryExceeded) || d3.MemInUse() != 10 {
		t.Fatalf("replay over the allowance: err %v with %d in use, want ErrMemoryExceeded with 10", err, d3.MemInUse())
	}
}

// Suspended charges must not reach the tape (a suspended run's tape would
// replay zero I/Os into charged contexts).
func TestTapeSkipsSuspendedCharges(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	d.StartTape()
	restore := d.Suspend()
	scanFile(d, 8)
	restore()
	scanFile(d, 4)
	tape := d.StopTape()
	r, w := tape.IOs()
	if r != 1 || w != 1 {
		t.Fatalf("tape reads/writes = %d/%d, want 1/1 (suspended charges leaked)", r, w)
	}
}

// Consecutive same-label charges merge into a single segment.
func TestTapeSegmentMerging(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	d.StartTape()
	scanFile(d, 8)
	scanFile(d, 8)
	tape := d.StopTape()
	if len(tape.Segments) != 1 {
		t.Fatalf("segments = %+v, want one merged ambient segment", tape.Segments)
	}
}

func TestStopTapeWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDisk(Config{M: 64, B: 4}).StopTape()
}
