package harness

import "fmt"

func init() {
	Register(&Experiment{
		ID:       "E27",
		Artifact: "storage backends: the charged transfer schedule is physically executable (implementation artifact)",
		Title:    "Backends: sim vs os.File engine — transfer parity, bit-identical results, device telemetry",
		Run:      runE27,
	})
}

// runE27 runs every memo workload on both backends sequentially and applies
// the differential contract its notes state (runArm checks seam parity). All
// printed columns are deterministic: the sequential schedule fixes the device
// access sequence, so even the syscall counters reproduce exactly.
func runE27(p Params) (*Table, error) {
	p = p.WithDefaults()
	p.NoMemo = false // the table reports memo-replayed transfers
	t := &Table{
		Title: "E27: storage backends — sim vs os.File engine, exhaustive strategy",
		Header: []string{"workload", "rows", "IOs", "xfer R/W", "replayed R/W",
			"preads", "pwrites", "parity", "identical"},
	}
	for w, wl := range memoWorkloads {
		sim, err := runArm(p, w, arm{backend: "sim", emit: true})
		if err != nil {
			return nil, fmt.Errorf("E27 %s sim: %w", wl.name, err)
		}
		file, err := runAgainst(p, w, arm{backend: "file", emit: true}, sim,
			pinCount|pinOrdered|pinPolicy|pinExec|pinStats|pinXfer)
		if err != nil {
			return nil, fmt.Errorf("E27 %s file: %w", wl.name, err)
		}
		dev := file.dev
		if dev.BilledReads != file.xfer.Reads || dev.BilledWrites != file.xfer.Writes {
			return nil, fmt.Errorf("E27 %s: engine observed %d/%d billed transfers, ledger performed %d/%d",
				wl.name, dev.BilledReads, dev.BilledWrites, file.xfer.Reads, file.xfer.Writes)
		}
		if dev.ReadCalls+dev.BackfillServes != dev.BilledReads {
			return nil, fmt.Errorf("E27 %s: billed reads are not one pread each (or a backfill): %+v", wl.name, dev)
		}
		t.AddRow(wl.name, file.rows, file.stats.IOs(),
			fmt.Sprintf("%d/%d", file.xfer.Reads, file.xfer.Writes),
			fmt.Sprintf("%d/%d", file.xfer.ReplayedReads, file.xfer.ReplayedWrites),
			dev.ReadCalls, dev.WriteCalls, "exact", "yes")
	}
	t.Notes = append(t.Notes,
		"parity = charged Stats equal seam transfers (performed + memo-replayed) on BOTH backends, and the engine's observed billed transfers equal the performed side exactly",
		"identical = rows+order (FNV fingerprint), winning policy, exec stats, full stats, and seam ledger match across backends bit for bit",
		"preads/pwrites are real syscalls, one per charged transfer: every billed read is one pread unless its frame has no device copy yet (preads + backfill serves = billed reads, checked)",
		"every charged read on the file engine is byte-verified against the in-memory image: a torn or corrupt block panics at the exact transfer that broke")
	return t, nil
}
