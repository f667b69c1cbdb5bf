package extmem_test

import (
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/opcache"
)

// TestSlabsOnlyUnderUnboundedMemo checks the carving gate: file data comes
// from slabs only while an unbounded operator memo is attached, which keeps
// every file until the disk is done anyway. A disk with no memo or with a
// bounded one carves nothing.
func TestSlabsOnlyUnderUnboundedMemo(t *testing.T) {
	write := func(d *extmem.Disk) {
		f := d.NewFile(2)
		f.Grow(10)
		w := f.NewWriter()
		for i := int64(0); i < 100; i++ {
			w.Append([]int64{i, i})
		}
		w.Close()
		d.Carve(8)
	}
	for _, tc := range []struct {
		name   string
		attach func(d *extmem.Disk)
		carves bool
	}{
		{"no memo", func(d *extmem.Disk) {}, false},
		{"bounded entries", func(d *extmem.Disk) { opcache.EnableLimited(d, opcache.Limits{MaxEntries: 4}) }, false},
		{"bounded tuples", func(d *extmem.Disk) { opcache.EnableLimited(d, opcache.Limits{MaxTuples: 1 << 20}) }, false},
		{"unbounded", func(d *extmem.Disk) { opcache.Enable(d) }, true},
	} {
		d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
		tc.attach(d)
		write(d)
		if got := d.SlabBytes() > 0; got != tc.carves {
			t.Errorf("%s: SlabBytes = %d, want carving %v", tc.name, d.SlabBytes(), tc.carves)
		}
		// Detaching the memo stops carving; files already carved stay.
		opcache.Disable(d)
		before := d.SlabBytes()
		for i := 0; i < 200; i++ {
			write(d)
		}
		if d.SlabBytes() != before {
			t.Errorf("%s: carved %d more bytes with the memo detached", tc.name, d.SlabBytes()-before)
		}
		d.Recycle()
	}
}
