package main

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var busySink uint64

// busyLoop spins for d on the CPU.
func busyLoop(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	busySink = x
}

func TestProfileAttributesBusyLoopToItsPackage(t *testing.T) {
	name := runtime.FuncForPC(reflect.ValueOf(busyLoop).Pointer()).Name()
	pkg := name[:strings.LastIndex(name, ".")+1] // the package prefix, as profiles spell it
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	busyLoop(200 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("profile has no samples")
	}
	shares := attribute(p, func(fn string) string {
		if strings.HasPrefix(fn, pkg) {
			return "bench"
		}
		return ""
	})
	if shares["bench"] < 0.5 {
		t.Errorf("busy loop got %.2f of the samples, want most (shares %v)", shares["bench"], shares)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestClassifyLibrary(t *testing.T) {
	for fn, want := range map[string]string{
		"acyclicjoin.runOnce.func1":                                  "acyclicjoin",
		"acyclicjoin/internal/core.Run":                              "core",
		"acyclicjoin/internal/extmem.(*Disk).chargeReadWindow":       "extmem",
		"acyclicjoin/internal/extmem/diskfile.(*engine).flush":       "diskfile",
		"acyclicjoin/internal/extsort.sortRun[go.shape.int64]":       "extsort",
		"acyclicjoin/internal/reducer.FullReduce":                    "other",
		"acyclicjoin/internal/opcache.Do":                            "opcache",
		"main.busyLoop":                                              "",
		"runtime.mallocgc":                                           "",
		"acyclicjoinx.Foo":                                           "",
		"acyclicjoin/internal/tuple.Assignment.Set":                  "tuple",
		"acyclicjoin/internal/hypergraph.(*Graph).JoinForest":        "hypergraph",
		"acyclicjoin/internal/relation.Semijoin.func2":               "relation",
		"acyclicjoin/internal/core.runExhaustive[...].func1.gowrap1": "core",
	} {
		if got := classifyLibrary(fn); got != want {
			t.Errorf("classifyLibrary(%q) = %q, want %q", fn, got, want)
		}
	}
}
