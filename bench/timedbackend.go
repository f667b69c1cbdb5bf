package main

import (
	"sync/atomic"
	"time"

	"acyclicjoin/internal/extmem"
)

// Backend methods the decorator times.
const (
	opCreateFile = iota
	opWriteRange
	opReadRange
	opTruncate
	opFlush
	opClose
	numOps
)

type opCounters struct {
	calls, ns, bytes atomic.Int64
}

// timedBackend is an extmem.Backend decorator: every call passes through to
// the wrapped engine unchanged, and the decorator records its wall time,
// call count and payload bytes. devNs totals the time spent below the seam,
// which the tracer subtracts from the enclosing span's self time. Counters
// are atomic because a Backend may be called from several goroutines.
type timedBackend struct {
	inner extmem.Backend
	ops   [numOps]opCounters
	devNs atomic.Int64
}

func newTimedBackend(inner extmem.Backend) *timedBackend {
	return &timedBackend{inner: inner}
}

func (b *timedBackend) done(op int, start time.Time, bytes int) {
	d := int64(time.Since(start))
	c := &b.ops[op]
	c.calls.Add(1)
	c.ns.Add(d)
	c.bytes.Add(int64(bytes))
	b.devNs.Add(d)
}

// opTotals is what the decorator recorded for one method.
type opTotals struct {
	calls, seconds, bytes float64
}

// totals reports one method's counters; a nil decorator (no file backend)
// reports zeros.
func (b *timedBackend) totals(op int) opTotals {
	if b == nil {
		return opTotals{}
	}
	c := &b.ops[op]
	return opTotals{
		calls:   float64(c.calls.Load()),
		seconds: time.Duration(c.ns.Load()).Seconds(),
		bytes:   float64(c.bytes.Load()),
	}
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) CreateFile(arity int) uint64 {
	start := time.Now()
	phys := b.inner.CreateFile(arity)
	b.done(opCreateFile, start, 0)
	return phys
}

func (b *timedBackend) WriteRange(phys uint64, off int, cells []int64, billed bool) {
	start := time.Now()
	b.inner.WriteRange(phys, off, cells, billed)
	b.done(opWriteRange, start, 8*len(cells))
}

func (b *timedBackend) ReadRange(phys uint64, off int, want []int64) {
	start := time.Now()
	b.inner.ReadRange(phys, off, want)
	b.done(opReadRange, start, 8*len(want))
}

func (b *timedBackend) Truncate(phys uint64) {
	start := time.Now()
	b.inner.Truncate(phys)
	b.done(opTruncate, start, 0)
}

func (b *timedBackend) Flush() error {
	start := time.Now()
	err := b.inner.Flush()
	b.done(opFlush, start, 0)
	return err
}

func (b *timedBackend) Close() error {
	start := time.Now()
	err := b.inner.Close()
	b.done(opClose, start, 0)
	return err
}

func (b *timedBackend) DeviceStats() extmem.DeviceStats { return b.inner.DeviceStats() }
