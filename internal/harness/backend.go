package harness

import (
	"fmt"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
)

// newBackendDisk builds one experiment machine on the storage engine selected
// by Params.Backend: the counting simulator by default, or the os.File-backed
// engine under "file" — every experiment then physically executes and
// verifies its charged transfers, with tables byte-identical either way (the
// model sits entirely above the backend seam). It panics on a misconfigured
// backend: experiments treat the machine the way they treat an invalid
// Config, as a harness setup error rather than a measurable outcome.
//
// Experiments create disks freely and drop them when done, so the file
// engine's descriptor is reclaimed by its Close finalizer rather than an
// explicit close; the backing file itself is unlinked at creation unless
// Params.DataDir pins it to a directory.
func newBackendDisk(p Params, cfg extmem.Config) *extmem.Disk {
	switch p.Backend {
	case "", "sim":
		return extmem.NewDisk(cfg)
	case "file":
		eng, err := diskfile.Open(p.DataDir, cfg)
		if err != nil {
			panic(fmt.Sprintf("harness: open file backend: %v", err))
		}
		eng.SetFaultPlan(&extmem.FaultPlan{Seed: 1, Layer: extmem.LayerDevice, Rate: p.DevFaultRate})
		return extmem.NewDiskWithBackend(cfg, eng)
	default:
		panic(fmt.Sprintf("harness: unknown backend %q (want \"sim\" or \"file\")", p.Backend))
	}
}
