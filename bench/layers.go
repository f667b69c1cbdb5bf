package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"acyclicjoin"
	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/tuple"
)

// span is one timed call into a layer. dev is the backend time the timing
// decorator observed while the span was open.
type span struct {
	layer      string
	parent     int
	start, end time.Duration
	dev        time.Duration
}

// tracer records the spans of the traced pass in memory. A nil *tracer
// records nothing, which is how an untraced layer run is made.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	dev   *timedBackend // backend of the query in progress; nil on sim
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) devTime() time.Duration {
	if t.dev == nil {
		return 0
	}
	return time.Duration(t.dev.devNs.Load())
}

func (t *tracer) begin(layer string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: time.Since(t.epoch), dev: -t.devTime()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	s := &t.spans[t.open[n-1]]
	t.open = t.open[:n-1]
	s.end = time.Since(t.epoch)
	s.dev += t.devTime()
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// layerTimes sums, per layer, the spans' inclusive time and their self
// time: a span minus its child spans and minus the backend calls made
// directly inside it (those are the device layer's time).
func (t *tracer) layerTimes() (incl, self map[string]time.Duration) {
	childDur := make([]time.Duration, len(t.spans))
	childDev := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childDev[s.parent] += s.dev
		}
	}
	incl, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range t.spans {
		d := s.end - s.start
		incl[s.layer] += d
		self[s.layer] += d - childDur[i] - (s.dev - childDev[i])
	}
	return incl, self
}

// layerRun is what one query through the layers produced.
type layerRun struct {
	count           int64
	stats, planning extmem.Stats
	branches        int
	prune           core.PruneStats
	planIOs         int64 // core dry-run branches
	execIOs         int64 // core emitting run
	reduceIOs       int64
	inTuples        int
	keptTuples      int
	memo            opcache.Stats
	xfer            extmem.XferStats
	device          extmem.DeviceStats
	phases          map[string]extmem.Stats
	firstRow        time.Duration // from core entry to the first emit
	backend         *timedBackend // nil on sim or when untraced
}

// runLayers runs one query by calling the layers' own functions in the
// order the public runOnce does, with the same pinned options. With a
// non-nil tracer it records a span around each layer call and wraps the
// file engine in the timing decorator.
func runLayers(w *workload, lq *layerQuery, rels []relSpec, tr *tracer) (r *layerRun, err error) {
	cfg := extmem.Config{M: benchM, B: benchB}
	r = &layerRun{}
	var backend extmem.Backend
	if w.backend == "file" {
		tr.begin("diskfile.open")
		eng, oerr := diskfile.Open("", cfg)
		tr.end()
		if oerr != nil {
			return nil, oerr
		}
		backend = eng
		if tr != nil {
			r.backend = newTimedBackend(eng)
			tr.dev = r.backend
			backend = r.backend
		}
		defer func() {
			tr.begin("diskfile.close")
			cerr := backend.Close()
			tr.end()
			if err == nil && cerr != nil {
				err = cerr
			}
		}()
	}
	disk := extmem.NewDiskWithBackend(cfg, backend)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer run aborted: %v", p)
		}
	}()
	opcache.EnableLimited(disk, opcache.Limits{})
	disk.EnablePhases()

	tr.begin("relation.load")
	in := lq.load(disk, rels)
	tr.end()

	tr.begin("reducer.full_reduce")
	red, err := reducer.FullReduce(lq.g, in)
	tr.end()
	if err != nil {
		return nil, err
	}
	r.reduceIOs = disk.Stats().IOs()
	for id := range in {
		r.inTuples += in[id].Len()
		r.keptTuples += red[id].Len()
	}

	copts := core.Options{Strategy: core.StrategyExhaustive, AssumeReduced: true}
	coreStart := tr.now()
	emit := func(tuple.Assignment) {
		r.count++
		if r.count == 1 {
			r.firstRow = tr.now() - coreStart
		}
	}
	tr.begin("core.run")
	if _, isLine := lq.g.AsLine(); isLine && lq.g.NumEdges() >= 3 {
		_, err = core.RunLine(lq.g, red, emit, copts)
		r.stats = disk.Stats()
		r.planning = r.stats
		r.branches = 1
		r.execIOs = r.stats.IOs() - r.reduceIOs
	} else {
		var cr *core.Result
		cr, err = core.Run(lq.g, red, emit, copts)
		if err == nil {
			full := disk.Stats()
			r.stats = full.Sub(cr.TotalStats.Sub(cr.ExecStats))
			r.planning = full
			r.branches = cr.Branches
			r.prune = cr.Prune
			r.planIOs = cr.TotalStats.IOs() - cr.ExecStats.IOs()
			r.execIOs = cr.ExecStats.IOs()
		}
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	if m := opcache.Of(disk); m != nil {
		r.memo = m.Stats()
	}
	r.xfer = disk.Transfers()
	r.device = disk.DeviceStats()
	r.phases = disk.PhaseStats()
	return r, nil
}

// errParity marks a traced query that did not reproduce the public result:
// a failed check that invalidates the per-layer numbers, not a crash.
var errParity = errors.New("traced-path parity")

// parity checks that a layer run reproduced the public run's Count, Stats
// and PlanningStats exactly.
func (r *layerRun) parity(pub *acyclicjoin.Result) error {
	conv := func(s extmem.Stats) acyclicjoin.Stats {
		return acyclicjoin.Stats{Reads: s.Reads, Writes: s.Writes, IOs: s.IOs(), MemHiWater: s.MemHiWater}
	}
	switch {
	case r.count != pub.Count:
		return fmt.Errorf("traced count %d, public %d", r.count, pub.Count)
	case conv(r.stats) != pub.Stats:
		return fmt.Errorf("traced Stats %+v, public %+v", conv(r.stats), pub.Stats)
	case conv(r.planning) != pub.PlanningStats:
		return fmt.Errorf("traced PlanningStats %+v, public %+v", conv(r.planning), pub.PlanningStats)
	}
	return nil
}

// perQuery returns the run's per-layer numbers by metric name, plus the
// parts (under "part." names) that ratios are formed from after summing.
func (r *layerRun) perQuery() map[string]float64 {
	d := r.device
	m := map[string]float64{
		"core.first_row_s": r.firstRow.Seconds(),
		"core.branches":    float64(r.branches),
		"core.plan_ios":    float64(r.planIOs),
		"core.exec_ios":    float64(r.execIOs),

		"opcache.hits":           float64(r.memo.Hits),
		"opcache.misses":         float64(r.memo.Misses),
		"opcache.replayed_bytes": float64(r.memo.BytesReplayed),
		"opcache.evictions":      float64(r.memo.Evictions),

		"extmem.performed_ios":   float64(r.xfer.Reads + r.xfer.Writes),
		"extmem.replayed_ios":    float64(r.xfer.ReplayedReads + r.xfer.ReplayedWrites),
		"extmem.sort_ios":        float64(r.phases["sort"].IOs()),
		"extmem.reduce_ios":      float64(r.phases["reduce"].IOs()),
		"extmem.nested_loop_ios": float64(r.phases["nested-loop"].IOs()),
		"extmem.scan_join_ios":   float64(r.phases[extmem.DefaultPhase].IOs()),
		"extmem.mem_hiwater":     float64(r.stats.MemHiWater),

		"diskfile.read_syscalls":  float64(d.ReadCalls),
		"diskfile.write_syscalls": float64(d.WriteCalls),
		"diskfile.block_reads":    float64(d.BlockReads),
		"diskfile.block_writes":   float64(d.BlockWrites),
		"diskfile.verified_cells": float64(d.VerifiedCells),
		"diskfile.demand_waits":   float64(d.DemandWaits),

		"reducer.ios": float64(r.reduceIOs),

		"part.lookups":       float64(r.memo.Hits + r.memo.Misses),
		"part.pruned":        float64(r.prune.Pruned),
		"part.started":       float64(r.prune.Started),
		"part.cache_hits":    float64(d.CacheHits),
		"part.billed_reads":  float64(d.BilledReads),
		"part.prefetch_hits": float64(d.PrefetchHits),
		"part.prefetched":    float64(d.Prefetched),
		"part.in_tuples":     float64(r.inTuples),
		"part.kept_tuples":   float64(r.keptTuples),
	}
	rd, wr, fl := r.backend.totals(opReadRange), r.backend.totals(opWriteRange), r.backend.totals(opFlush)
	m["diskfile.read_range_s"], m["diskfile.read_range_calls"] = rd.seconds, rd.calls
	m["diskfile.write_range_s"], m["diskfile.write_range_calls"] = wr.seconds, wr.calls
	m["diskfile.flush_s"] = fl.seconds
	m["diskfile.seam_bytes"] = rd.bytes + wr.bytes
	return m
}

// tracedPass runs n traced queries through the layers, checks each against
// the public result, and returns the per-layer metrics (all but cpu.* and
// trace.overhead_ratio) together with each traced query's latency.
func tracedPass(w *workload, lq *layerQuery, rels []relSpec, n int, pub *acyclicjoin.Result) (map[string]float64, []float64, error) {
	tr := newTracer()
	var lat []float64
	vals := map[string]float64{}
	for i := 0; i < n; i++ {
		tr.dev = nil
		tr.begin("query")
		start := tr.now()
		r, err := runLayers(w, lq, rels, tr)
		tr.end()
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, (tr.now() - start).Seconds())
		if err := r.parity(pub); err != nil {
			return nil, nil, fmt.Errorf("%w: traced query %d: %v", errParity, i, err)
		}
		for name, v := range r.perQuery() {
			vals[name] += v / float64(n)
		}
	}
	incl, self := tr.layerTimes()
	for name, span := range map[string]time.Duration{
		"core.run_s":            incl["core.run"],
		"core.self_s":           self["core.run"],
		"diskfile.open_s":       incl["diskfile.open"],
		"diskfile.close_s":      incl["diskfile.close"],
		"relation.load_s":       incl["relation.load"],
		"reducer.full_reduce_s": incl["reducer.full_reduce"],
	} {
		vals[name] = span.Seconds() / float64(n)
	}
	for name, parts := range map[string][2]string{
		"core.pruned_ratio":           {"part.pruned", "part.started"},
		"opcache.hit_ratio":           {"opcache.hits", "part.lookups"},
		"diskfile.cache_hit_ratio":    {"part.cache_hits", "part.billed_reads"},
		"diskfile.prefetch_hit_ratio": {"part.prefetch_hits", "part.prefetched"},
		"reducer.kept_ratio":          {"part.kept_tuples", "part.in_tuples"},
	} {
		vals[name] = ratio(vals[parts[0]], vals[parts[1]])
	}
	for name := range vals {
		if strings.HasPrefix(name, "part.") {
			delete(vals, name)
		}
	}
	vals["trace.query_s_p50"] = quantile(lat, 0.5)
	vals["trace.queries"] = float64(n)
	return vals, lat, nil
}
