// Command bench is the repository's end-to-end and per-layer benchmark.
//
// It drives the public API (acyclicjoin.RunContext) as a closed loop — one
// client, one goroutine, back-to-back queries, no think time — over four
// seeded workloads, checks every result against the enumeration oracle, and
// prints the metrics declared in BENCHMARK.json. Run it from the repository
// root:
//
//	bash bench/run.sh --workload tree-plan --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh -full bench/results/out.json
//	bash bench/run.sh -compare a.json b.json
//
// A single-workload run prints, as its last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A full run
// measures every workload traced and writes both sets, with spreads, to a
// file that -compare holds against the bounds in BENCHMARK.json. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured duration of one run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 42, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds the timed loop runs, per workload")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	full := fs.String("full", "", "run every workload traced and write all metrics to this JSON file")
	compare := fs.Bool("compare", false, "compare the two full-run files given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two full-run files")
			return 2
		}
		code, err := runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return code
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	clearLibraryEnv()
	dur := time.Duration(*seconds * float64(time.Second))
	if *full != "" {
		if err := runFull(*full, *seed, dur, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	wr, err := runWorkload(w, *seed, dur, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := result{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.Metrics}
	if *trace == 1 {
		res.Metrics = wr.Layers
	}
	for name, v := range res.Metrics {
		v.Spread = nil // spreads belong to full-run files only
		res.Metrics[name] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// clearLibraryEnv unsets every ACYCLICJOIN_* variable: the library reads
// them as fallbacks for Options fields, and the benchmark pins those fields.
func clearLibraryEnv() {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "ACYCLICJOIN_") {
			os.Unsetenv(name)
		}
	}
}

// runWorkload measures one workload and reports it on stderr. Metrics are
// published only when every check passed; with traced set that includes
// traced-path parity, and the per-layer metrics are published too.
func runWorkload(w *workload, seed int64, dur time.Duration, traced bool, log io.Writer) (*workloadRun, error) {
	o, err := measureWorkload(w, seed, dur, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	wr := &workloadRun{Name: w.name, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Samples: o.samples, Problems: o.problems, Metrics: map[string]metricValue{}, Layers: map[string]metricValue{}}
	for _, p := range o.problems {
		fmt.Fprintf(log, "%s: FAILED %s\n", w.name, p)
	}
	if wr.Correct {
		if wr.Metrics, err = publish(endToEnd, o.e2e, o.spreads); err != nil {
			return nil, err
		}
		if traced {
			if wr.Layers, err = publish(perLayer, o.layers, nil); err != nil {
				return nil, err
			}
		}
	}
	report(log, wr)
	return wr, nil
}

func report(log io.Writer, wr *workloadRun) {
	fmt.Fprintf(log, "%s: correct=%v attempted=%d failed=%d timed=%d\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Samples)
	for _, set := range []map[string]metricValue{wr.Metrics, wr.Layers} {
		var keys []string
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(log, "  %-28s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
}

// runFull measures every workload and writes the full-run file.
func runFull(path string, seed int64, dur time.Duration, log io.Writer) error {
	fr := fullRun{Seed: seed, Seconds: dur.Seconds(),
		Host: fmt.Sprintf("%s %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())}
	for _, w := range workloads {
		wr, err := runWorkload(w, seed, dur, true, log)
		if err != nil {
			return err
		}
		fr.Workloads = append(fr.Workloads, *wr)
	}
	b, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
