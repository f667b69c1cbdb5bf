package harness

import (
	"fmt"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/opcache"
)

// newBackendDisk builds one experiment machine on the storage engine selected
// by Params.Backend: the counting simulator by default, or the os.File-backed
// engine under "file" — every experiment then physically executes and
// verifies its charged transfers, with tables byte-identical either way (the
// model sits entirely above the backend seam). It panics on a misconfigured
// backend: experiments treat the machine the way they treat an invalid
// Config, as a harness setup error rather than a measurable outcome.
//
// The caller closes the disk's engine with closeDisk when done with it (an
// experiment through machines), which also removes a backing file that
// Params.DataDir pins to a directory.
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

// disk builds an experiment machine of Params' shape and backend, with an
// operator memo attached unless Params.NoMemo is set.
func (ms *machines) disk(p Params) *extmem.Disk {
	d := newBackendDisk(p, extmem.Config{M: p.M, B: p.B})
	*ms = append(*ms, d)
	if !p.NoMemo {
		opcache.Enable(d)
	}
	return d
}

// options returns o for a core call of an experiment run under p: with the
// memo off when Params.NoMemo is set. core.Run attaches a memo of its own
// under the zero Options.Memo, so leaving a disk without one is not enough.
func (p Params) options(o core.Options) core.Options {
	if p.NoMemo {
		o.Memo = core.MemoOff
	}
	return o
}

func (ms *machines) close(err *error) {
	for _, d := range *ms {
		closeDisk(d, err)
	}
}
