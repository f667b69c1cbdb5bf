// Command joinrun evaluates an acyclic join over CSV files on the simulated
// external-memory machine, printing results (or just the count) and the I/O
// statistics.
//
// Each relation is "Name:attr1,attr2,...=file.csv"; the CSV columns must
// match the declared attributes in order (no header unless -header).
//
//	joinrun -m 4096 -b 256 -count \
//	    Follows:src,mid=follows.csv Follows2:mid,dst=follows.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"acyclicjoin"
	"acyclicjoin/internal/cli"
)

func main() {
	var (
		m       = flag.Int("m", 4096, "memory size M in tuples")
		b       = flag.Int("b", 256, "block size B in tuples")
		countIt = flag.Bool("count", false, "print only the result count")
		header  = flag.Bool("header", false, "CSV files have a header row to skip")
		limit   = flag.Int("limit", 20, "max rows to print (0 = unlimited)")
		strat   = flag.String("strategy", "", "peeling strategy: exhaustive|first|smallest|greedy; empty falls back to $ACYCLICJOIN_STRATEGY, then exhaustive")
		explain = flag.Bool("explain", false, "print the planning report (plan, branch counters, I/O split, greedy score rationale) to stderr after the run")
		prune   = flag.Bool("prune", true, "abort dry-run branches once they exceed the best completed branch's cost; results and plan are unaffected, but planning I/O counts only the charges made before each abort (pass -prune=false for the full sum over branches)")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); the partial telemetry gathered so far is printed")
		backend = flag.String("backend", "", "storage engine: sim (counting simulator, default) or file (real os.File-backed disk, one syscall per performed transfer; results and I/O figures are bit-identical, performed transfers are physically executed and verified); empty falls back to $ACYCLICJOIN_BACKEND")
		datadir = flag.String("datadir", "", "directory for the file backend's backing file (default $ACYCLICJOIN_DATADIR, then an unlinked temp file)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: joinrun [flags] Name:attr1,attr2=file.csv ...")
		os.Exit(2)
	}

	qb := acyclicjoin.NewQuery()
	type load struct {
		rel   string
		file  string
		arity int
	}
	var loads []load
	for _, arg := range flag.Args() {
		spec, err := cli.ParseRelationSpec(arg)
		if err != nil || spec.File == "" {
			fatal("bad relation spec %q (want Name:attrs=file.csv)", arg)
		}
		qb.Relation(spec.Name, spec.Attrs...)
		loads = append(loads, load{rel: spec.Name, file: spec.File, arity: len(spec.Attrs)})
	}
	q, err := qb.Build()
	if err != nil {
		fatal("%v", err)
	}

	inst := q.NewInstance()
	for _, l := range loads {
		if err := loadCSV(inst, l.rel, l.file, l.arity, *header); err != nil {
			fatal("loading %s: %v", l.file, err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d distinct tuples\n", l.rel, inst.Size(l.rel))
	}

	opts := acyclicjoin.Options{Memory: *m, Block: *b, NoPrune: !*prune,
		Backend: *backend, DataDir: *datadir}
	opts.Strategy, err = acyclicjoin.ParseStrategy(cli.StrategyName(*strat))
	if err != nil {
		fatal("%v", err)
	}

	attrs := q.Attributes()
	printed := 0
	emit := func(row acyclicjoin.Row) {
		if *limit > 0 && printed >= *limit {
			return
		}
		parts := make([]string, 0, len(attrs))
		for _, a := range attrs {
			parts = append(parts, fmt.Sprintf("%s=%v", a, row[a]))
		}
		fmt.Println(strings.Join(parts, " "))
		printed++
	}
	if *countIt {
		// Result.Count is exact without an emit callback; skip decoding.
		emit = nil
	}
	ctx, cancel := newSignalContext(*timeout)
	defer cancel()
	res, err := acyclicjoin.RunContext(ctx, q, inst, opts, emit)
	if err != nil {
		// An aborted run still hands back partial telemetry; surface it
		// before exiting so an interrupted long run is not a total loss.
		if res != nil {
			fmt.Fprintf(os.Stderr, "aborted: %v\npartial: results=%d, I/O reads=%d writes=%d total=%d\n",
				err, res.Count, res.Stats.Reads, res.Stats.Writes, res.Stats.IOs)
			if res.Faults.Any() {
				fmt.Fprintf(os.Stderr, "faults: %s\n", res.Faults)
			}
			if errors.Is(err, acyclicjoin.ErrCancelled) {
				os.Exit(130)
			}
			os.Exit(1)
		}
		fatal("%v", err)
	}
	if !*countIt && *limit > 0 && res.Count > int64(printed) {
		fmt.Printf("... (%d more rows)\n", res.Count-int64(printed))
	}
	fmt.Fprintf(os.Stderr, "results: %d\nplan: %s\nI/O: reads=%d writes=%d total=%d (M=%d B=%d, mem hi-water %d tuples)\n",
		res.Count, res.Plan, res.Stats.Reads, res.Stats.Writes, res.Stats.IOs, *m, *b, res.Stats.MemHiWater)
	if res.Backend != "sim" {
		d := res.Device
		fmt.Fprintf(os.Stderr, "backend: %s (transfers: reads=%d writes=%d replayed=%d unread=%d; device: preads=%d pwrites=%d backfills=%d)\n",
			res.Backend, res.Transfers.Reads, res.Transfers.Writes,
			res.Transfers.ReplayedReads+res.Transfers.ReplayedWrites, res.Transfers.UnreadReads,
			d.ReadCalls, d.WriteCalls, d.Backfills)
	}
	if res.Faults.Any() {
		fmt.Fprintf(os.Stderr, "faults: %s\n", res.Faults)
	}
	if *explain {
		fmt.Fprint(os.Stderr, res.ExplainString())
	}
}

// newSignalContext builds the run's context: an optional deadline, plus
// two-stage SIGINT handling — the first interrupt cancels the context (the
// engine unwinds and partial telemetry is printed), a second force-exits.
func newSignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancelCause := context.WithCancelCause(context.Background())
	done := context.CancelFunc(func() { cancelCause(nil) })
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, timeout, errors.New("joinrun: timeout elapsed"))
		prev := done
		done = func() { cancelT(); prev() }
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "interrupt: cancelling run (interrupt again to force exit)")
		cancelCause(errors.New("joinrun: interrupted"))
		<-sig
		fmt.Fprintln(os.Stderr, "second interrupt: forcing exit")
		os.Exit(130)
	}()
	return ctx, done
}

func loadCSV(inst *acyclicjoin.Instance, rel, file string, arity int, header bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	return cli.ReadCSV(f, arity, header, func(vals []cli.Value) error {
		av := make([]acyclicjoin.Value, len(vals))
		for i, v := range vals {
			av[i] = v
		}
		return inst.Add(rel, av...)
	})
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
