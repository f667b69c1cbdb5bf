package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func bound(b float64) *float64 { return &b }

func spread(s float64) *float64 { return &s }

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "lat", Better: "lower", Bound: bound(0.10)},
		{Name: "qps", Better: "higher", Bound: bound(0.10)},
		{Name: "ios", Better: "lower", Bound: bound(0.001)},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	runOf := func(correct bool, lat, latSpread, qps, ios float64) *fullRun {
		return &fullRun{Workloads: []workloadRun{{Name: "w", Correct: correct, Metrics: map[string]metricValue{
			"lat": {Value: lat, Spread: spread(latSpread)},
			"qps": {Value: qps, Spread: spread(0.01)},
			"ios": {Value: ios, Spread: spread(0)},
		}}}}
	}
	base := runOf(true, 1.0, 0.02, 100, 1000)
	for _, tc := range []struct {
		name string
		b    *fullRun
		want map[string]string
	}{
		{"same within bounds", runOf(true, 1.05, 0.02, 95, 1000),
			map[string]string{"lat": statusSame, "qps": statusSame, "ios": statusSame}},
		{"worse beyond bounds", runOf(true, 1.2, 0.02, 80, 1002),
			map[string]string{"lat": statusWorse, "qps": statusWorse, "ios": statusWorse}},
		{"better beyond bounds", runOf(true, 0.8, 0.02, 120, 990),
			map[string]string{"lat": statusBetter, "qps": statusBetter, "ios": statusBetter}},
		{"spread wider than bound", runOf(true, 1.0, 0.15, 100, 1000),
			map[string]string{"lat": statusUnresolved, "qps": statusSame, "ios": statusSame}},
		{"failed correctness", runOf(false, 1.0, 0.02, 100, 1000),
			map[string]string{"lat": statusInvalid, "qps": statusInvalid, "ios": statusInvalid}},
		{"workload missing", &fullRun{},
			map[string]string{"lat": statusMissing, "qps": statusMissing, "ios": statusMissing}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range compareRuns(spec, base, tc.b) {
				if v.status != tc.want[v.metric] {
					t.Errorf("%s: status %s (change %+.3f, spread %.3f), want %s",
						v.metric, v.status, v.change, v.spread, tc.want[v.metric])
				}
			}
		})
	}
}

func TestRunCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "lat", "better": "lower", "bound": 0.1}},
	})
	run := func(name string, lat float64) string {
		return write(name, fullRun{Workloads: []workloadRun{{Name: "w", Correct: true,
			Metrics: map[string]metricValue{"lat": {Value: lat, Spread: spread(0.01)}}}}})
	}
	a, again, worse := run("a.json", 1.0), run("again.json", 1.02), run("worse.json", 1.5)
	var out bytes.Buffer
	if code, err := runCompare(spec, a, again, &out); code != 0 || err != nil {
		t.Errorf("agreeing runs: exit %d, %v\n%s", code, err, out.String())
	}
	if code, err := runCompare(spec, a, worse, &out); code != 1 || err != nil {
		t.Errorf("regressed run: exit %d, %v, want 1", code, err)
	}
	if code, _ := runCompare(filepath.Join(dir, "absent.json"), a, worse, &out); code != 2 {
		t.Errorf("unreadable spec: exit %d, want 2", code)
	}
}
