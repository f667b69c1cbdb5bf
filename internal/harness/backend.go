package harness

import (
	"fmt"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/opcache"
)

// newBackendDisk builds one experiment machine on the storage engine selected
// by Params.Backend: the counting simulator by default, or the os.File-backed
// engine under "file" — every experiment then physically executes and
// verifies its charged transfers, with tables byte-identical either way (the
// model sits entirely above the backend seam). The machine carries an
// operator memo unless Params.NoMemo is set; this is the one place the
// harness attaches one, and core uses the disk's memo as it finds it. It
// panics on a misconfigured backend: experiments treat the machine the way
// they treat an invalid Config, as a harness setup error rather than a
// measurable outcome.
//
// The caller closes the disk's engine with closeDisk when done with it (an
// experiment through machines), which also removes a backing file that
// Params.DataDir pins to a directory.
func newBackendDisk(p Params, cfg extmem.Config) *extmem.Disk {
	var d *extmem.Disk
	switch p.Backend {
	case "", "sim":
		d = extmem.NewDisk(cfg)
	case "file":
		eng, err := diskfile.Open(p.DataDir, cfg)
		if err != nil {
			panic(fmt.Sprintf("harness: open file backend: %v", err))
		}
		eng.SetFaultPlan(&extmem.FaultPlan{Seed: 1, Layer: extmem.LayerDevice, Rate: p.DevFaultRate})
		d = extmem.NewDiskWithBackend(cfg, eng)
	default:
		panic(fmt.Sprintf("harness: unknown backend %q (want \"sim\" or \"file\")", p.Backend))
	}
	if !p.NoMemo {
		opcache.Enable(d)
	}
	return d
}

// closeDisk closes d's storage engine, if it has one, and reports a close
// error through *err unless *err already holds one.
func closeDisk(d *extmem.Disk, err *error) {
	if eng := d.Backend(); eng != nil {
		if cerr := eng.Close(); *err == nil && cerr != nil {
			*err = fmt.Errorf("close engine: %w", cerr)
		}
	}
}

// machines is the set of disks one experiment builds; close closes every
// engine among them, on whatever path the experiment returns.
type machines []*extmem.Disk

// disk builds an experiment machine of Params' shape and backend.
func (ms *machines) disk(p Params) *extmem.Disk {
	d := newBackendDisk(p, extmem.Config{M: p.M, B: p.B})
	*ms = append(*ms, d)
	return d
}

func (ms *machines) close(err *error) {
	for _, d := range *ms {
		closeDisk(d, err)
	}
}
