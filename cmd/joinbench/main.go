// Command joinbench regenerates the paper's tables and figures as measured
// experiments on the simulated external-memory machine. Without flags it
// runs the full registry (E1-E23 and E28, see DESIGN.md for the mapping to
// paper artifacts); -exp selects a single experiment.
//
// Usage:
//
//	joinbench [-exp E4] [-m 256] [-b 16] [-scale 1] [-seed 42] [-parallel 4] [-list]
//	          [-opcache=false] [-prune=false] [-backend file]
//	          [-strategy greedy] [-timeout 10m]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"acyclicjoin/internal/harness"
)

// config carries every joinbench flag; kept as a struct so run stays
// callable from tests without a dozen positional parameters.
type config struct {
	exp                        string
	m, b, scale                int
	seed                       int64
	list                       bool
	verify, par                int
	opcache, prune             bool
	backend, datadir, strategy string
	cpuprof, memprof           string
}

func main() {
	var c config
	flag.StringVar(&c.exp, "exp", "", "run a single experiment (e.g. E4); empty runs all")
	flag.IntVar(&c.m, "m", 256, "memory size M in tuples")
	flag.IntVar(&c.b, "b", 16, "block size B in tuples")
	flag.IntVar(&c.scale, "scale", 1, "input size multiplier")
	flag.Int64Var(&c.seed, "seed", 42, "random seed for generated workloads")
	flag.BoolVar(&c.list, "list", false, "list experiments and exit")
	flag.IntVar(&c.verify, "verify", 0, "run a randomized correctness sweep with this many trials per configuration and exit")
	flag.IntVar(&c.par, "parallel", 1, "run up to this many experiments concurrently (tables are identical at any setting)")
	flag.BoolVar(&c.opcache, "opcache", true, "use the charge-replay operator memo (tables are byte-identical either way; off forces every operator to run for real)")
	flag.BoolVar(&c.prune, "prune", true, "branch-and-bound pruning of exhaustive dry runs (tables are byte-identical either way; off restores the paper's full Σ-branches accounting in the experiments that honor it)")
	flag.StringVar(&c.backend, "backend", "", "storage engine for every experiment: sim (counting simulator, default) or file (real os.File-backed disk; all tables stay byte-identical); empty falls back to $ACYCLICJOIN_BACKEND")
	flag.StringVar(&c.datadir, "datadir", "", "directory for the file backend's backing files (default $ACYCLICJOIN_DATADIR, then unlinked temp files)")
	flag.StringVar(&c.strategy, "strategy", "", "restrict the -verify sweep to one peeling strategy: exhaustive, first, smallest, or greedy; empty falls back to $ACYCLICJOIN_STRATEGY, then the full sweep")
	flag.StringVar(&c.cpuprof, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memprof, "memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "stop starting new experiments after this long (0 = no limit); completed tables are still printed")
	flag.Parse()

	ctx, cancelCause := context.WithCancelCause(context.Background())
	if *timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, *timeout, errors.New("joinbench: timeout elapsed"))
		defer cancelT()
	}
	// Two-stage SIGINT: the first interrupt cancels the context (experiments
	// not yet started are skipped and the completed tables print), a second
	// force-exits.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "interrupt: cancelling sweep (interrupt again to force exit)")
		cancelCause(errors.New("joinbench: interrupted"))
		<-sig
		fmt.Fprintln(os.Stderr, "second interrupt: forcing exit")
		os.Exit(130)
	}()
	os.Exit(run(ctx, c))
}

// run holds the real main so profile writers run before os.Exit.
func run(ctx context.Context, c config) int {
	if c.cpuprof != "" {
		f, err := os.Create(c.cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprof != "" {
		defer func() {
			f, err := os.Create(c.memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if c.list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Artifact, e.Title)
		}
		return 0
	}

	p := harness.Params{M: c.m, B: c.b, Scale: c.scale, Seed: c.seed,
		NoMemo: !c.opcache, NoPrune: !c.prune,
		Backend: c.backend, DataDir: c.datadir,
		Strategy: c.strategy}

	if c.verify > 0 {
		tab, err := harness.VerifySweep(p, c.verify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verification FAILED: %v\n", err)
			return 1
		}
		fmt.Print(tab.Render())
		return 0
	}
	exps := harness.All()
	if c.exp != "" {
		e := harness.Get(c.exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", c.exp)
			return 2
		}
		exps = []*harness.Experiment{e}
	} else {
		fmt.Printf("machine: M=%d tuples, B=%d tuples/block, scale=%d, seed=%d, parallel=%d\n",
			p.M, p.B, p.Scale, p.Seed, c.par)
	}
	// Experiments are independent; RunAllCtx executes up to -parallel of
	// them concurrently and hands back outcomes in registry order, so the
	// printed report is byte-identical to a sequential sweep. Cancellation
	// (timeout or SIGINT) skips experiments that have not started yet;
	// completed tables still print below before the non-zero exit.
	code := 0
	for _, o := range harness.RunAllCtx(ctx, exps, p, c.par) {
		fmt.Printf("\n[%s] %s\n(paper artifact: %s)\n\n", o.Exp.ID, o.Exp.Title, o.Exp.Artifact)
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.Exp.ID, o.Err)
			code = 1
			continue
		}
		fmt.Print(o.Table.Render())
	}
	return code
}
