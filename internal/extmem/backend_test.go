package extmem

import (
	"strings"
	"testing"
)

// TestValidateMessagesCarryValues pins the contract that a rejected machine
// configuration is diagnosable from the error message alone: it names M, B,
// and the violated minimum.
func TestValidateMessagesCarryValues(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want []string
	}{
		{"negative M", Config{M: -3, B: 4}, []string{"M=-3", "B=4", "at least 1 tuple"}},
		{"zero M", Config{M: 0, B: 4}, []string{"M=0", "B=4", "at least 1 tuple"}},
		{"zero B", Config{M: 64, B: 0}, []string{"M=64", "B=0", "at least 1 tuple"}},
		{"negative B", Config{M: 64, B: -1}, []string{"M=64", "B=-1", "at least 1 tuple"}},
		{"B over M", Config{M: 8, B: 16}, []string{"M=8", "B=16", "M >= 3*B = 48"}},
		{"fan-in 1", Config{M: 8, B: 4}, []string{"M=8", "B=4", "fan-in M/B-1 = 1", "minimum 2", "M >= 3*B = 12"}},
		{"fan-in 0", Config{M: 5, B: 4}, []string{"M=5", "B=4", "fan-in M/B-1 = 0", "M >= 3*B = 12"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted an invalid config", tc.cfg)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("Validate(%+v) = %q, missing %q", tc.cfg, err, sub)
				}
			}
		})
	}
	for _, ok := range []Config{{M: 12, B: 4}, {M: 3, B: 1}, {M: 256, B: 16}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) rejected a valid config: %v", ok, err)
		}
	}
}

// TestXferLedgerTracksStats exercises the seam invariant on the sim backend:
// performed + replayed transfers always equal the charged stats, through
// writes, reads, replay, clone scans, and reset.
func TestXferLedgerTracksStats(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	check := func(when string) {
		t.Helper()
		s, x := d.Stats(), d.Transfers()
		if s.Reads != x.TotalReads() || s.Writes != x.TotalWrites() {
			t.Fatalf("%s: stats %v vs transfers %+v", when, s, x)
		}
	}
	f := d.NewFile(2)
	w := f.NewWriter()
	for i := 0; i < 41; i++ {
		w.Append([]int64{int64(i), int64(i)})
	}
	w.Close()
	check("after writes")
	if x := d.Transfers(); x.Writes != d.Stats().Writes || x.ReplayedWrites != 0 {
		t.Fatalf("writer charges must be performed transfers: %+v", x)
	}
	r := f.NewReader()
	for tup := r.Next(); tup != nil; tup = r.Next() {
	}
	check("after reads")
	d.ReplayIO(3, 2)
	check("after replay")
	if x := d.Transfers(); x.ReplayedReads != 3 || x.ReplayedWrites != 2 {
		t.Fatalf("replayed charges must land on the replayed side: %+v", x)
	}
	before := d.Transfers()
	cf := f.CloneTo(d)
	cr := cf.NewReader()
	for tup := cr.Next(); tup != nil; tup = cr.Next() {
	}
	check("after clone scan")
	if x := d.Transfers(); x.Reads == before.Reads {
		t.Fatalf("clone scan must be performed transfers: %+v", x)
	}
	d.ResetStats()
	check("after reset")
	if x := d.Transfers(); x != (XferStats{}) {
		t.Fatalf("ResetStats left transfers %+v", x)
	}
}

// TestXferLedgerUnderBudgetAbort pins the clamp path: when the watermark cuts
// a charge, the ledger is cut identically, so parity survives aborted runs.
func TestXferLedgerUnderBudgetAbort(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	f := d.NewFile(1)
	d.SetChargeBudget(5)
	aborted, err := d.CatchBudgetExceeded(func() error {
		w := f.NewWriter()
		for i := 0; i < 1000; i++ {
			w.Append([]int64{int64(i)})
		}
		w.Close()
		return nil
	})
	if err != nil || !aborted {
		t.Fatalf("CatchBudgetExceeded = (%v, %v), want abort", aborted, err)
	}
	s, x := d.Stats(), d.Transfers()
	if s.IOs() != 5 {
		t.Fatalf("aborted run charged %d, want watermark 5", s.IOs())
	}
	if s.Writes != x.Writes || s.Reads != x.Reads {
		t.Fatalf("ledger diverged across abort: stats %v, transfers %+v", s, x)
	}
	// Replay clamped by the watermark must clamp the ledger identically.
	d.ResetStats()
	d.SetChargeBudget(3)
	aborted, err = d.CatchBudgetExceeded(func() error {
		d.ReplayIO(10, 0)
		return nil
	})
	if err != nil || !aborted {
		t.Fatalf("replay abort = (%v, %v)", aborted, err)
	}
	if s, x := d.Stats(), d.Transfers(); s.Reads != 3 || x.ReplayedReads != 3 {
		t.Fatalf("clamped replay: stats %v, transfers %+v", s, x)
	}
}

// TestBackendNameDefaultsToSim covers the nil-backend identity surface.
func TestBackendNameDefaultsToSim(t *testing.T) {
	d := NewDisk(Config{M: 64, B: 4})
	if got := d.BackendName(); got != "sim" {
		t.Fatalf("BackendName() = %q, want sim", got)
	}
	if d.Backend() != nil {
		t.Fatal("sim disk has a backend")
	}
	if ds := d.DeviceStats(); ds != (DeviceStats{}) {
		t.Fatalf("sim device stats non-zero: %+v", ds)
	}
}
