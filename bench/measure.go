package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"acyclicjoin"
)

const (
	// A build follows every setupEvery-th query (outside its timer), so that
	// setup_s — the median build — samples the same stretch of machine time
	// as the latency metrics; a run too short for setupBuilds of them makes
	// up the rest after the timed loop.
	setupBuilds = 21
	setupEvery  = 4
	// fingerprintEvery is how often (in queries) an emitting workload's rows
	// are fingerprinted against the reference.
	fingerprintEvery = 20
	// minSamples timed queries run even past the deadline, so that at least
	// ten samples lie beyond query_s_p90.
	minSamples = 100
	// spreadBatches is how many consecutive batches the timed samples are cut
	// into to estimate a timing metric's within-run spread.
	spreadBatches = 8
)

// outcome is everything one workload run measured.
type outcome struct {
	attempted, failed int64
	samples           int      // timed queries, the sample count of the latency metrics
	problems          []string // one line per failed query or failed check
	e2e               map[string]float64
	spreads           map[string]float64
	layers            map[string]float64 // nil unless traced
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// options pins every Options field the benchmark relies on, so that neither
// library defaults nor ACYCLICJOIN_* variables can change what is measured.
func (w *workload) options() acyclicjoin.Options {
	return acyclicjoin.Options{
		Memory:      benchM,
		Block:       benchB,
		Strategy:    acyclicjoin.StrategyExhaustive,
		Parallelism: 0,
		Memo:        acyclicjoin.MemoOn,
		Backend:     w.backend,
		Shards:      1,
	}
}

// counters are the per-query numbers that must repeat exactly.
type counters struct {
	total, exec, performed int64
	memHiWater             int
}

func countersOf(r *acyclicjoin.Result) counters {
	return counters{
		total:      r.PlanningStats.IOs,
		exec:       r.Stats.IOs,
		performed:  r.Transfers.Reads + r.Transfers.Writes,
		memHiWater: r.Stats.MemHiWater,
	}
}

// heapAllocs reads the cumulative heap allocation counter without stopping
// the world.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measureWorkload generates the workload's inputs from seed, computes the
// reference, times set-up, runs the closed loop for dur, and with traced
// set also runs the traced and profiled passes.
func measureWorkload(w *workload, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	rels := w.generate(seed)
	lq, err := newLayerQuery(rels)
	if err != nil {
		return nil, err
	}
	ref, err := computeReference(lq, rels)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	hasher := newRowHasher(lq.names)

	var setup []float64
	build := func() (*acyclicjoin.Query, *acyclicjoin.Instance, error) {
		runtime.GC() // every build starts from the same heap state
		start := time.Now()
		q, inst, err := buildQuery(rels)
		setup = append(setup, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		return q, inst, nil
	}
	q, inst, err := build()
	if err != nil {
		return nil, err
	}

	opts := w.options()
	sizes := map[string]float64{}
	var linear float64
	for _, r := range rels {
		sizes[r.name] = float64(len(r.rows))
		linear += float64(len(r.rows)) / benchB
	}
	ex, err := acyclicjoin.Explain(q, sizes, opts)
	if err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	bound := math.Pow(2, ex.BoundLog2) + linear

	o := &outcome{}
	var rows []acyclicjoin.Row
	var emit func(acyclicjoin.Row)
	if w.emitRows {
		emit = func(r acyclicjoin.Row) { rows = append(rows, r) }
	}
	var first *acyclicjoin.Result
	var want counters
	ctx := context.Background()
	query := func() (*acyclicjoin.Result, error) {
		return acyclicjoin.RunContext(ctx, q, inst, opts, emit)
	}
	// check validates one query's result; it runs after the timer stops,
	// and then drops the kept rows so they are garbage during the next query.
	check := func(i int64, res *acyclicjoin.Result, err error) {
		defer func() {
			clear(rows)
			rows = rows[:0]
		}()
		o.attempted++
		if err != nil {
			o.fail("query %d: %v", i, err)
			return
		}
		if res.Count != ref.count {
			o.fail("query %d: count %d, want %d", i, res.Count, ref.count)
			return
		}
		if first == nil {
			first, want = res, countersOf(res)
		} else if got := countersOf(res); got != want {
			o.fail("query %d: counters %+v differ from the first query's %+v", i, got, want)
			return
		}
		if w.emitRows && i%fingerprintEvery == 0 {
			var fp uint64
			for _, r := range rows {
				fp += hasher.row(r)
			}
			if int64(len(rows)) != ref.count || fp != ref.fingerprint {
				o.fail("query %d: %d rows with fingerprint %x, want %d rows with %x", i, len(rows), fp, ref.count, ref.fingerprint)
			}
		}
	}

	var i int64
	for ; i < int64(w.warmup); i++ {
		res, err := query()
		check(i, res, err)
	}
	runtime.GC()
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var lat, alloc []float64
	deadline := time.Now().Add(dur)
	for ; time.Now().Before(deadline) || len(lat) < minSamples; i++ {
		a0 := heapAllocs(allocSample)
		start := time.Now()
		res, err := query()
		d := time.Since(start)
		a1 := heapAllocs(allocSample)
		lat = append(lat, d.Seconds())
		alloc = append(alloc, float64(a1-a0))
		check(i, res, err)
		if len(lat)%setupEvery == 0 {
			if _, _, err := build(); err != nil {
				return nil, err
			}
		}
	}
	for len(setup) < setupBuilds {
		if _, _, err := build(); err != nil {
			return nil, err
		}
	}
	o.samples = len(lat)
	if first == nil {
		return o, nil
	}

	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	median := func(xs []float64) float64 { return quantile(xs, 0.5) }
	o.e2e, o.spreads = map[string]float64{}, map[string]float64{}
	for _, m := range []struct {
		name    string
		samples []float64
		stat    func([]float64) float64
	}{
		{"setup_s", setup, median},
		{"query_s_p50", lat, median},
		{"query_s_p90", lat, func(xs []float64) float64 { return quantile(xs, 0.9) }},
		{"queries_per_s", lat, func(xs []float64) float64 { return 1 / mean(xs) }},
		{"alloc_bytes_per_query", alloc, mean},
	} {
		o.e2e[m.name] = m.stat(m.samples)
		o.spreads[m.name] = batchSpread(m.samples, m.stat)
	}
	for name, v := range map[string]float64{
		"total_ios":         float64(want.total),
		"exec_ios":          float64(want.exec),
		"performed_ios":     float64(want.performed),
		"io_bound_ratio":    float64(want.exec) / bound,
		"mem_hiwater_ratio": float64(want.memHiWater) / benchM,
	} {
		o.e2e[name] = v
		o.spreads[name] = 0 // checked identical on every query
	}

	if traced && o.failed == 0 {
		layers, tlat, err := tracedPass(w, lq, rels, w.traced, first)
		if errors.Is(err, errParity) {
			o.fail("%v", err)
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		layers["trace.overhead_ratio"] = quantile(tlat, 0.5) / o.e2e["query_s_p50"]
		shares, err := profiledPass(w.traced, func() {
			res, err := query()
			check(i, res, err)
			i++
		})
		if err != nil {
			return nil, err
		}
		for layer := range libraryLayers {
			layers["cpu."+layer] = shares[layer]
		}
		for _, c := range []string{"acyclicjoin", "gc", "other"} {
			layers["cpu."+c] = shares[c]
		}
		o.layers = layers
	}
	return o, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// batchSpread cuts samples into consecutive batches, evaluates stat on
// each, and returns the spread of the batch values: how much the metric
// moves from one stretch of the run to the next.
func batchSpread(samples []float64, stat func([]float64) float64) float64 {
	n := len(samples) / spreadBatches
	if n == 0 {
		return 1 // too few samples to estimate: as uncertain as the value itself
	}
	var vals []float64
	for b := 0; b < spreadBatches; b++ {
		vals = append(vals, stat(samples[b*n:(b+1)*n]))
	}
	return spreadOf(vals)
}

// profiledPass runs query n times through the public API under the CPU
// profiler and returns each layer's share of the samples.
func profiledPass(n int, query func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		query()
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(p, classifyLibrary), nil
}
