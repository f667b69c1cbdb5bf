package core

import (
	"fmt"
	"math/rand"
	"runtime"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// builder constructs a fresh query + instance on the given disk. Each engine
// run gets its own disk and instance so the comparison starts from identical
// machine state.
type builder func(d *extmem.Disk) (*hypergraph.Graph, relation.Instance)

// engineRunOpts evaluates b under opts on a fresh disk, returning the
// Result, the emitted assignments in emission order, the final disk stats,
// and the error (if any).
func engineRunOpts(b builder, opts Options) (*Result, []string, extmem.Stats, error) {
	return engineRunFaults(b, opts, nil)
}

// engineRunFaults is engineRunOpts with a fault plan attached to the disk
// after the instance is loaded (so loading itself never faults). Every run
// through here — i.e. every engine invocation in this package's tests — is
// bracketed by a leak check: no goroutine growth, regardless of how the run
// ended.
func engineRunFaults(b builder, opts Options, plan *extmem.FaultPlan) (*Result, []string, extmem.Stats, error) {
	d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
	g, in := b(d)
	d.SetFaultPlan(plan)
	goroutines := runtime.NumGoroutine()
	var emitted []string
	r, err := Run(g, in, func(a tuple.Assignment) {
		emitted = append(emitted, a.String())
	}, opts)
	assertNoLeaks(goroutines, fmt.Sprintf("opts=%+v plan=%+v err=%v", opts, plan, err))
	return r, emitted, d.Stats(), err
}

func randCoreInstance(d *extmem.Disk, rng *rand.Rand, g *hypergraph.Graph, rows, dom int) relation.Instance {
	in := relation.Instance{}
	for _, e := range g.Edges() {
		schema := make(tuple.Schema, len(e.Attrs))
		copy(schema, e.Attrs)
		seen := map[string]bool{}
		var rs []tuple.Tuple
		for k := 0; k < rows; k++ {
			t := make(tuple.Tuple, len(schema))
			for j := range t {
				t[j] = int64(rng.Intn(dom))
			}
			key := fmt.Sprint(t)
			if !seen[key] {
				seen[key] = true
				rs = append(rs, t)
			}
		}
		in[e.ID] = relation.FromTuples(d, schema, rs)
	}
	return in
}
