package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json, the benchmark's declaration.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// fullRun is the file a full run writes: every workload, traced, with the
// end-to-end metrics' within-run spreads.
type fullRun struct {
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Host      string        `json:"host"`
	Workloads []workloadRun `json:"workloads"`
}

type workloadRun struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int                    `json:"samples"` // timed queries
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"layers"`
}

// Verdicts of one (workload, metric) comparison.
const (
	statusSame       = "same"
	statusBetter     = "better"
	statusWorse      = "worse"
	statusUnresolved = "unresolved" // the runs' own spread exceeds the bound
	statusMissing    = "missing"
	statusInvalid    = "invalid" // a run failed a correctness check
)

type verdict struct {
	workload, metric string
	a, b             float64
	change           float64 // share by which b is worse than a; negative is better
	spread, bound    float64
	status           string
}

// compareRuns holds every (workload, end-to-end metric) pair of run b
// against run a and the bound spec declares for the metric.
func compareRuns(spec *benchSpec, a, b *fullRun) []verdict {
	find := func(r *fullRun, name string) *workloadRun {
		for i := range r.Workloads {
			if r.Workloads[i].Name == name {
				return &r.Workloads[i]
			}
		}
		return nil
	}
	var out []verdict
	for _, w := range spec.Workloads {
		wa, wb := find(a, w.Name), find(b, w.Name)
		for _, m := range spec.EndToEnd {
			v := verdict{workload: w.Name, metric: m.Name}
			if m.Bound != nil {
				v.bound = *m.Bound
			}
			out = append(out, judge(v, m, wa, wb))
		}
	}
	return out
}

func judge(v verdict, m specMetric, wa, wb *workloadRun) verdict {
	if wa == nil || wb == nil {
		v.status = statusMissing
		return v
	}
	ma, okA := wa.Metrics[m.Name]
	mb, okB := wb.Metrics[m.Name]
	if !okA || !okB {
		v.status = statusMissing
		return v
	}
	v.a, v.b = ma.Value, mb.Value
	if !wa.Correct || !wb.Correct || wa.Failed > 0 || wb.Failed > 0 {
		v.status = statusInvalid
		return v
	}
	v.change = worseBy(v.a, v.b, m.Better)
	for _, s := range []*float64{ma.Spread, mb.Spread} {
		if s != nil && *s > v.spread {
			v.spread = *s
		}
	}
	switch {
	case v.spread > v.bound:
		v.status = statusUnresolved
	case v.change > v.bound:
		v.status = statusWorse
	case v.change < -v.bound:
		v.status = statusBetter
	default:
		v.status = statusSame
	}
	return v
}

// worseBy is the share of |a| by which b is worse than a in the metric's
// better direction ("lower" or "higher"); negative means better.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// failing reports whether a verdict blocks: anything but same or better.
func (v verdict) failing() bool {
	return v.status != statusSame && v.status != statusBetter
}

// runCompare prints the comparison of two full-run files and returns the
// process exit code: 0 when no pair is worse, unresolved, missing or
// invalid.
func runCompare(specPath, pathA, pathB string, stdout io.Writer) (int, error) {
	var spec benchSpec
	var a, b fullRun
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return 2, err
		}
	}
	vs := compareRuns(&spec, &a, &b)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tspread\tbound\tstatus\t")
	code := 0
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\t\n",
			v.workload, v.metric, v.a, v.b, 100*v.change, 100*v.spread, 100*v.bound, v.status)
		if v.failing() {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2, err
	}
	return code, nil
}
