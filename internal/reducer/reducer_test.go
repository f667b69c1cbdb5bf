package reducer

import (
	"math/rand"
	"reflect"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

func disk() *extmem.Disk { return extmem.NewDisk(extmem.Config{M: 16, B: 4}) }

func TestFullReduceLine(t *testing.T) {
	d := disk()
	g := hypergraph.Line(3) // R1{0,1} R2{1,2} R3{2,3}
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
			{1, 10}, {2, 20}, {3, 99}, // 99 dangles (no match in R2)
		}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, []tuple.Tuple{
			{10, 100}, {20, 200}, {77, 300}, // 77 dangles upstream
		}),
		2: relation.FromTuples(d, tuple.Schema{2, 3}, []tuple.Tuple{
			{100, 7}, {300, 8}, // 200 missing: (20,200) dangles downstream
		}),
	}
	red, err := FullReduce(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := red[0].Len(); got != 1 {
		t.Errorf("R1 reduced len = %d, want 1: %v", got, relation.Contents(red[0]))
	}
	if got := red[1].Len(); got != 1 {
		t.Errorf("R2 reduced len = %d, want 1: %v", got, relation.Contents(red[1]))
	}
	if got := red[2].Len(); got != 1 {
		t.Errorf("R3 reduced len = %d, want 1: %v", got, relation.Contents(red[2]))
	}
	ok, err := IsFullyReduced(g, red)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("result not fully reduced")
	}
	// Original untouched.
	if in[0].Len() != 3 {
		t.Error("input mutated")
	}
}

func TestFullReduceEmptyPropagates(t *testing.T) {
	d := disk()
	g := hypergraph.Line(3)
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 10}}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, nil),
		2: relation.FromTuples(d, tuple.Schema{2, 3}, []tuple.Tuple{{100, 7}}),
	}
	red, err := FullReduce(g, in)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if red[id].Len() != 0 {
			t.Errorf("R%d len = %d, want 0", id+1, red[id].Len())
		}
	}
}

func TestFullReduceStar(t *testing.T) {
	d := disk()
	g := hypergraph.StarQuery(2) // core R0{0,1}, petals R1{0,2}, R2{1,3}
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
			{1, 5}, {2, 6},
		}),
		1: relation.FromTuples(d, tuple.Schema{0, 2}, []tuple.Tuple{
			{1, 11}, {1, 12}, {9, 13},
		}),
		2: relation.FromTuples(d, tuple.Schema{1, 3}, []tuple.Tuple{
			{5, 21},
		}),
	}
	red, err := FullReduce(g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Only core tuple (1,5) survives: 2 has no petal match on attr 1 (6
	// missing in R2).
	if red[0].Len() != 1 {
		t.Fatalf("core len = %d: %v", red[0].Len(), relation.Contents(red[0]))
	}
	if red[1].Len() != 2 {
		t.Fatalf("petal1 len = %d", red[1].Len())
	}
	if red[2].Len() != 1 {
		t.Fatalf("petal2 len = %d", red[2].Len())
	}
}

func TestIsFullyReducedDetectsDangling(t *testing.T) {
	d := disk()
	g := hypergraph.Line(2)
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 10}, {2, 99}}),
		1: relation.FromTuples(d, tuple.Schema{1, 2}, []tuple.Tuple{{10, 100}}),
	}
	ok, err := IsFullyReduced(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dangling tuple not detected")
	}
}

func TestFullReduceDisconnected(t *testing.T) {
	d := disk()
	g := hypergraph.MustNew([]*hypergraph.Edge{
		{ID: 0, Name: "A", Attrs: []int{0, 1}},
		{ID: 1, Name: "B", Attrs: []int{5, 6}},
	})
	in := relation.Instance{
		0: relation.FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{{1, 2}}),
		1: relation.FromTuples(d, tuple.Schema{5, 6}, []tuple.Tuple{{3, 4}}),
	}
	red, err := FullReduce(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if red[0].Len() != 1 || red[1].Len() != 1 {
		t.Fatal("disconnected components should be untouched")
	}
}

// Property: full reduction is idempotent and never grows relations; on
// random line instances, every surviving tuple extends to a full path.
func TestFullReduceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		d := disk()
		n := 2 + rng.Intn(4)
		g := hypergraph.Line(n)
		in := relation.Instance{}
		for i := 0; i < n; i++ {
			var rows []tuple.Tuple
			for k := 0; k < 5+rng.Intn(20); k++ {
				rows = append(rows, tuple.Tuple{int64(rng.Intn(6)), int64(rng.Intn(6))})
			}
			r := relation.FromTuples(d, tuple.Schema{i, i + 1}, rows)
			rr, err := r.SortDedupBy(i, i+1)
			if err != nil {
				t.Fatal(err)
			}
			in[i] = rr
		}
		red, err := FullReduce(g, in)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			if red[id].Len() > in[id].Len() {
				t.Fatal("reduction grew a relation")
			}
		}
		ok, err := IsFullyReduced(g, red)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("not fully reduced after FullReduce (trial %d)", trial)
		}
		red2, err := FullReduce(g, red)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			if red2[id].Len() != red[id].Len() {
				t.Fatal("reduction not idempotent")
			}
		}
		// Brute-force: every tuple in red extends to a full path.
		rows := make([][]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			rows[i] = relation.Contents(red[i])
		}
		var explore func(i int, v int64) bool
		explore = func(i int, v int64) bool {
			if i == n {
				return true
			}
			for _, tp := range rows[i] {
				if tp[0] == v && explore(i+1, tp[1]) {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for _, tp := range rows[i] {
				// Walk left from tp and right from tp.
				left := true
				if i > 0 {
					var walkL func(j int, v int64) bool
					walkL = func(j int, v int64) bool {
						if j < 0 {
							return true
						}
						for _, q := range rows[j] {
							if q[1] == v && walkL(j-1, q[0]) {
								return true
							}
						}
						return false
					}
					left = walkL(i-1, tp[0])
				}
				if !left || !explore(i+1, tp[1]) {
					t.Fatalf("tuple %v of R%d does not extend (trial %d)", tp, i+1, trial)
				}
			}
		}
	}
}

// TestFullReduceSortsEachRelationOnce pins the reducer's exact charge on a
// two-relation line: each relation is sorted by the shared attribute once,
// though both sweeps semijoin through it. The child's sort is written and
// kept for the downward sweep; the parent's streams into the upward
// semijoin. So FullReduce charges exactly what the child's sort and the two
// semijoins, the first on the unsorted parent, charge when run by hand, and
// that is the parent's blocks read and written fewer than with the parent
// sorted by hand.
func TestFullReduceSortsEachRelationOnce(t *testing.T) {
	g := hypergraph.Line(2) // R1{0,1} R2{1,2}
	instance := func(d *extmem.Disk) relation.Instance {
		rng := rand.New(rand.NewSource(5))
		in := relation.Instance{}
		for i := range 2 {
			var rows []tuple.Tuple
			for range 40 {
				rows = append(rows, tuple.Tuple{int64(rng.Intn(12)), int64(rng.Intn(12))})
			}
			in[i] = relation.FromTuples(d, tuple.Schema{i, i + 1}, rows)
		}
		return in
	}
	parent, _, err := g.JoinForest()
	if err != nil {
		t.Fatal(err)
	}
	p, u := 0, 1
	if parent[0] == 1 {
		p, u = 1, 0
	}

	d := disk()
	in := instance(d)
	d.ResetStats()
	red, err := FullReduce(g, in)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Stats()

	hd := disk()
	hin := instance(hd)
	hd.ResetStats()
	by := func(r *relation.Relation) *relation.Relation {
		s, err := r.SortBy(1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	semi := func(r, s *relation.Relation) *relation.Relation {
		out, err := relation.Semijoin(r, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	su := by(hin[u])
	rp := semi(hin[p], su) // upward: the child reduces the parent, sorting it
	ru := semi(su, by(rp)) // downward: the parent reduces the child
	if want := hd.Stats(); got != want {
		t.Fatalf("FullReduce charged %+v, want %+v for one sort per relation and two semijoins", got, want)
	}

	wd := disk()
	win := instance(wd)
	wd.ResetStats()
	wsu := by(win[u])
	semi(wsu, by(semi(by(win[p]), wsu)))
	if w, blocks := wd.Stats(), win[p].Blocks(); w.Reads-got.Reads != blocks || w.Writes-got.Writes != blocks {
		t.Fatalf("FullReduce charged %+v, want %d reads and writes fewer than %+v with the parent's sort written", got, blocks, w)
	}
	for id, want := range map[int]*relation.Relation{p: rp, u: ru} {
		if got, want := relation.Contents(red[id]), relation.Contents(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("relation %d reduced to %v, want %v", id, got, want)
		}
	}
}
