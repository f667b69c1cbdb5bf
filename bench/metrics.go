package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json declares
// the same names; TestMetricNamesInSync keeps the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library sees, reported from the
// untraced timed loop through the public API.
var endToEnd = []metricDef{
	{"setup_s", "s"},               // median of 21 query+instance builds
	{"query_s_p50", "s"},           // RunContext latency, median
	{"query_s_p90", "s"},           // RunContext latency, 90th percentile
	{"queries_per_s", "1/s"},       // closed-loop throughput: queries / summed latency
	{"total_ios", "count"},         // PlanningStats.IOs
	{"exec_ios", "count"},          // Stats.IOs
	{"performed_ios", "count"},     // Transfers.Reads+Writes: charges that moved a block, not memo replays
	{"io_bound_ratio", "ratio"},    // exec_ios / (2^Explain.BoundLog2 + Σ N_e/B)
	{"mem_hiwater_ratio", "ratio"}, // Stats.MemHiWater / M
	{"alloc_bytes_per_query", "B"}, // heap bytes allocated per query
}

// perLayer are the metrics of single layers, from the traced pass (spans,
// counters) and the profiled pass (cpu.* shares). Times are seconds per
// query; counts are per query.
var perLayer = []metricDef{
	// Planner and memo.
	{"core.run_s", "s"},
	{"core.self_s", "s"},
	{"core.first_row_s", "s"},
	{"core.branches", "count"},
	{"core.pruned_ratio", "ratio"},
	{"core.plan_ios", "count"},
	{"core.exec_ios", "count"},
	{"opcache.hits", "count"},
	{"opcache.misses", "count"},
	{"opcache.hit_ratio", "ratio"},
	{"opcache.replayed_bytes", "B"},
	{"opcache.evictions", "count"},
	// Simulated disk.
	{"extmem.performed_ios", "count"},
	{"extmem.replayed_ios", "count"},
	{"extmem.sort_ios", "count"},
	{"extmem.reduce_ios", "count"},
	{"extmem.nested_loop_ios", "count"},
	{"extmem.scan_join_ios", "count"},
	{"extmem.mem_hiwater", "tuples"},
	// Device, through the timing decorator and DeviceStats.
	{"diskfile.open_s", "s"},
	{"diskfile.close_s", "s"},
	{"diskfile.read_range_s", "s"},
	{"diskfile.read_range_calls", "count"},
	{"diskfile.write_range_s", "s"},
	{"diskfile.write_range_calls", "count"},
	{"diskfile.flush_s", "s"},
	{"diskfile.seam_bytes", "B"},
	{"diskfile.read_syscalls", "count"},
	{"diskfile.write_syscalls", "count"},
	{"diskfile.block_reads", "count"},
	{"diskfile.block_writes", "count"},
	{"diskfile.cache_hit_ratio", "ratio"},
	{"diskfile.prefetch_hit_ratio", "ratio"},
	{"diskfile.verified_cells", "count"},
	{"diskfile.demand_waits", "count"},
	// Loading and reduction.
	{"relation.load_s", "s"},
	{"reducer.full_reduce_s", "s"},
	{"reducer.ios", "count"},
	{"reducer.kept_ratio", "ratio"},
	// CPU shares of the profiled pass.
	{"cpu.acyclicjoin", "share"},
	{"cpu.core", "share"},
	{"cpu.relation", "share"},
	{"cpu.extsort", "share"},
	{"cpu.extmem", "share"},
	{"cpu.opcache", "share"},
	{"cpu.diskfile", "share"},
	{"cpu.tuple", "share"},
	{"cpu.hypergraph", "share"},
	{"cpu.gc", "share"},
	{"cpu.other", "share"},
	// The traced pass itself.
	{"trace.query_s_p50", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.queries", "count"},
}

// metricValue is one reported number. Spread, set only in full-run files,
// is the run's own noise estimate as a share of the value (see spreadOf).
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"spread,omitempty"`
}

// publish turns measured values into the named, unit-tagged metric set of
// defs, failing if a value is missing or undeclared.
func publish(defs []metricDef, vals map[string]float64, spreads map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		mv := metricValue{Value: v, Unit: d.unit}
		if s, ok := spreads[d.name]; ok {
			s := s
			mv.Spread = &s
		}
		out[d.name] = mv
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spreadOf is the distance between the first and third quartile of xs as a
// share of their median: the noise measure the compare mode holds against
// each metric's bound.
func spreadOf(xs []float64) float64 {
	med := quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(med)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
