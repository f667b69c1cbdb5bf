// Per-disk slabs for file data. In the external-memory model every charged
// write puts B tuples on disk; here the disk is the File.data slices on the
// host heap, so a run allocates about as many bytes as it writes. On a disk
// whose every file lives until the disk is done anyway — the case of a disk
// carrying an unbounded operator memo, which keeps every operator output —
// file data is instead carved from large pooled slabs, and Recycle hands the
// slabs back to the pool in one step when the run is over.

package extmem

import (
	"fmt"
	"slices"
	"sync"
)

// slabCells is the size of one slab, in cells (int64s).
const slabCells = 1 << 14

// maxCarve is the largest request carved from a slab. Larger ones go to the
// heap, which bounds the tail a slab can leave unused at a quarter of it.
const maxCarve = slabCells / 4

// slabPool holds the slabs of recycled disks.
var slabPool = sync.Pool{New: func() any {
	s := make([]int64, slabCells)
	return &s
}}

// slabArena carves one disk's file data from pooled slabs.
type slabArena struct {
	// on says whether new file data is carved from slabs (SetSlabs). Files
	// carved before it is switched off keep their slabs until Recycle.
	on    bool
	slabs []*[]int64 // every slab drawn, handed back by Recycle
	cur   []int64    // the slab being carved
	used  int        // cells of cur carved so far
}

// carve returns an empty slice with capacity n.
func (a *slabArena) carve(n int) []int64 {
	if n > maxCarve {
		return make([]int64, 0, n)
	}
	if a.used+n > len(a.cur) {
		p := slabPool.Get().(*[]int64)
		a.slabs = append(a.slabs, p)
		a.cur, a.used = *p, 0
	}
	s := a.cur[a.used : a.used : a.used+n]
	a.used += n
	return s
}

// realloc returns data with capacity at least newCap. Data that is the
// slab's most recent carve grows in place when the slab has room; otherwise
// it is copied into a new carve. The old region is not reused before
// Recycle, so clones and snapshots aliasing it stay intact.
func (a *slabArena) realloc(data []int64, newCap int) []int64 {
	if a.isLast(data) {
		if start := a.used - cap(data); start+newCap <= len(a.cur) {
			a.used = start + newCap
			return a.cur[start : start+len(data) : start+newCap]
		}
	}
	return append(a.carve(newCap), data...)
}

// isLast reports whether data's capacity ends where the slab's carving does,
// so realloc can resize it in place.
func (a *slabArena) isLast(data []int64) bool {
	c := cap(data)
	return c > 0 && a.used >= c && &data[:c][c-1] == &a.cur[a.used-1]
}

// SetSlabs switches carving new file data from pooled slabs on or off. Only
// a disk whose files all live until the disk is done should carve: a slab
// is freed as a whole, so one live file keeps all of it, and Recycle
// invalidates every file. The operator memo switches it on when it is
// attached without limits.
func (d *Disk) SetSlabs(on bool) { d.arena.on = on }

// SlabBytes returns the bytes of slab memory the disk has drawn.
func (d *Disk) SlabBytes() int64 { return int64(len(d.arena.slabs)) * slabCells * 8 }

// Carve returns an empty slice with capacity n that lives as long as the
// disk's files: carved from the disk's slabs when it carves, from the heap
// otherwise. Like file data it is invalid after Recycle.
func (d *Disk) Carve(n int) []int64 {
	d.live()
	if !d.arena.on {
		return make([]int64, 0, n)
	}
	return d.arena.carve(n)
}

// Recycle ends the disk's life: its slabs go back to the pool for other
// disks to reuse, and an operator memo attached with SetOpMemo that has a
// Recycle method is recycled with it. Every file of the disk, every slice
// File.Raw, File.At, Reader.Next or Carve returned, and every clone or
// snapshot of its files, is invalid afterwards; NewFile, new readers and
// charged transfers on the disk panic. Only the owner that knows the run is
// over may call it.
func (d *Disk) Recycle() {
	if d.recycled {
		return
	}
	d.recycled = true
	if m, ok := d.opMemo.(interface{ Recycle() }); ok {
		m.Recycle()
	}
	for _, p := range d.arena.slabs {
		slabPool.Put(p)
	}
	d.arena = slabArena{}
}

// live panics if the disk was recycled. It is checked once per block charge,
// file and reader, never per tuple. A nil disk (a snapshot's) is live.
func (d *Disk) live() {
	if d != nil && d.recycled {
		panic(fmt.Sprintf("extmem: disk (M=%d, B=%d) used after Recycle", d.cfg.M, d.cfg.B))
	}
}

// growData makes room for extra more cells in f.data on a carving disk:
// at least doubling, and to one block at first.
func (f *File) growData(extra int) {
	need := len(f.data) + extra
	f.d.live()
	f.data = f.d.arena.realloc(f.data, max(2*cap(f.data), need, f.d.cfg.B*f.Slot()))
}

// clip gives back the capacity of f's data beyond its contents once more
// than half of it is unused. Appending at least doubles, so past a file's
// first block only a Grow that reserved more than the writer wrote leaves
// that much, and memo snapshots would otherwise pin the reservation for the
// disk's life. The unused tail of the slab's latest carve returns to the
// slab, and heap data is copied to its length. A slab carve that is no
// longer the latest keeps its tail: a copy would leave the old region unused
// until Recycle all the same.
func (f *File) clip() {
	n, c := len(f.data), cap(f.data)
	if f.shared || c <= 2*n {
		return
	}
	switch a := &f.d.arena; {
	case !a.on:
		f.data = slices.Clone(f.data)
	case a.isLast(f.data) || c > maxCarve:
		f.data = a.realloc(f.data, n)
	}
}
