package harness

import (
	"fmt"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/faultbackend"
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
		var plan *extmem.DeviceFaultPlan
		if p.DevFaultRate > 0 {
			plan = &extmem.DeviceFaultPlan{Seed: p.DevFaultSeed, Rate: p.DevFaultRate}
		}
		b, err := faultbackend.OpenBackend(p.DataDir, cfg, plan)
		if err != nil {
			panic(fmt.Sprintf("harness: open file backend: %v", err))
		}
		return extmem.NewDiskWithBackend(cfg, b)
	default:
		panic(fmt.Sprintf("harness: unknown backend %q (want \"sim\" or \"file\")", p.Backend))
	}
}
