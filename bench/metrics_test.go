package main

import (
	"reflect"
	"regexp"
	"testing"
	"time"
)

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationInSync holds BENCHMARK.json to the program: the same
// workloads with the same reasons, the same metrics with the same units, and
// the same run length.
func TestDeclarationInSync(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := spec.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), program has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	for _, set := range []struct {
		declared []specMetric
		emitted  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		declared := map[string]specMetric{}
		for _, m := range set.declared {
			declared[m.Name] = m
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
		for _, m := range set.emitted {
			if !validName.MatchString(m.name) {
				t.Errorf("metric name %q is not a valid name", m.name)
			}
			d, ok := declared[m.name]
			if !ok {
				t.Errorf("emitted metric %s is not declared", m.name)
			} else if d.Unit != m.unit {
				t.Errorf("%s: declared unit %q, emitted %q", m.name, d.Unit, m.unit)
			}
			delete(declared, m.name)
		}
		for name := range declared {
			t.Errorf("declared metric %s is never emitted", name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestEveryMetricEmitted runs a short measurement, traced, of a small query
// on each core entry point, and checks that it passes its own correctness
// checks and produces exactly the declared metric sets.
func TestEveryMetricEmitted(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range smallFileWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			o, err := measureWorkload(w, 7, 300*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d queries failed: %v", o.failed, o.attempted, o.problems)
			}
			if _, err := publish(endToEnd, o.e2e, o.spreads); err != nil {
				t.Error(err)
			}
			if _, err := publish(perLayer, o.layers, nil); err != nil {
				t.Error(err)
			}
			for _, m := range endToEnd {
				if m.name != "setup_s" && o.spreads[m.name] < 0 {
					t.Errorf("%s: negative spread %v", m.name, o.spreads[m.name])
				}
			}
		})
	}
}

// TestInputsFollowTheSeed checks that a seed fixes the inputs and that
// another seed draws a different copy of the same shape.
func TestInputsFollowTheSeed(t *testing.T) {
	w := smallFileWorkloads()[0]
	a, b, c := w.generate(1), w.generate(1), w.generate(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same inputs")
	}
	ra, rc := mustReference(t, a), mustReference(t, c)
	if ra.count != rc.count {
		t.Errorf("join size %d for seed 1, %d for seed 2: relabelling changed the shape", ra.count, rc.count)
	}
}

func mustReference(t *testing.T, rels []relSpec) reference {
	t.Helper()
	lq, err := newLayerQuery(rels)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := computeReference(lq, rels)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}
