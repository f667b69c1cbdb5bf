package extmem

import "testing"

func TestPhasesDisabledByDefault(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 4})
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	if d.PhaseStats() != nil {
		t.Fatal("phase stats present without EnablePhases")
	}
}

func TestPhaseAttribution(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 4})
	d.EnablePhases()
	f := d.NewFile(1)

	// Unlabelled writes go to the default phase.
	w := f.NewWriter()
	for i := 0; i < 8; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()

	// Labelled reads.
	d.WithPhase("sort", func() {
		r := f.NewReader()
		for r.Next() != nil {
		}
	})

	ps := d.PhaseStats()
	if ps[DefaultPhase].Writes != 2 {
		t.Errorf("default phase writes = %d, want 2", ps[DefaultPhase].Writes)
	}
	if ps["sort"].Reads != 2 {
		t.Errorf("sort phase reads = %d, want 2", ps["sort"].Reads)
	}
	// Phase totals must sum to the global counters.
	var sum int64
	for _, s := range ps {
		sum += s.IOs()
	}
	if sum != d.Stats().IOs() {
		t.Errorf("phase sum %d != total %d", sum, d.Stats().IOs())
	}
}

func TestPhaseNestingInnermostWins(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 4})
	d.EnablePhases()
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	d.ResetPhases()
	d.ResetStats()
	d.WithPhase("outer", func() {
		d.WithPhase("inner", func() {
			r := f.NewReader()
			for r.Next() != nil {
			}
		})
		// Back in outer scope.
		r := f.NewReader()
		for r.Next() != nil {
		}
	})
	ps := d.PhaseStats()
	if ps["inner"].Reads != 1 || ps["outer"].Reads != 1 {
		t.Errorf("phases = %v", ps)
	}
}

func TestResetPhases(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 4})
	d.EnablePhases()
	f := d.NewFile(1)
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	d.ResetPhases()
	if n := len(d.PhaseStats()); n != 0 {
		t.Fatalf("phases after reset = %d", n)
	}
	// Still enabled: new charges are recorded.
	r := f.NewReader()
	for r.Next() != nil {
	}
	if len(d.PhaseStats()) == 0 {
		t.Fatal("phase accounting lost after reset")
	}
}

func TestSuspendSkipsPhases(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 4})
	d.EnablePhases()
	f := d.NewFile(1)
	restore := d.Suspend()
	w := f.NewWriter()
	w.Append([]int64{1})
	w.Close()
	restore()
	if len(d.PhaseStats()) != 0 {
		t.Fatal("suspended I/O leaked into phases")
	}
}

func TestWithPhaseThreeLevelNesting(t *testing.T) {
	d := NewDisk(Config{M: 16, B: 1})
	d.EnablePhases()
	f := d.NewFile(1)
	w := f.NewWriter()
	for i := 0; i < 4; i++ {
		w.Append([]int64{int64(i)})
	}
	w.Close()
	d.ResetPhases()
	scan := func() {
		r := f.NewReader()
		for r.Next() != nil {
		}
	}
	d.WithPhase("a", func() {
		d.WithPhase("b", func() {
			d.WithPhase("c", scan)
			scan() // back to b
		})
		scan() // back to a
	})
	scan() // back to the default phase
	ps := d.PhaseStats()
	for _, name := range []string{"a", "b", "c", DefaultPhase} {
		if ps[name].Reads != 4 {
			t.Errorf("phase %q reads = %d, want 4 (all: %v)", name, ps[name].Reads, ps)
		}
	}
}
