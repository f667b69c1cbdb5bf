package acyclicjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func buildL2(t *testing.T) *Query {
	t.Helper()
	q, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueryBuilderValidation(t *testing.T) {
	if _, err := NewQuery().Build(); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := NewQuery().Relation("R", "A").Relation("R", "B").Build(); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if _, err := NewQuery().Relation("R").Build(); err == nil {
		t.Fatal("attribute-less relation accepted")
	}
	if _, err := NewQuery().Relation("", "A").Build(); err == nil {
		t.Fatal("empty name accepted")
	}
	// Triangle: cyclic.
	if _, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "A", "C").
		Build(); err == nil {
		t.Fatal("cyclic query accepted")
	}
	// Two shared attributes: Berge-cyclic.
	if _, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "A", "B", "C").
		Build(); err == nil {
		t.Fatal("doubly-shared pair accepted")
	}
}

func TestQueryIntrospection(t *testing.T) {
	q := buildL2(t)
	rel := q.Relations()
	if len(rel) != 2 || rel[0] != "R1" || rel[1] != "R2" {
		t.Fatalf("relations = %v", rel)
	}
	attrs := q.Attributes()
	if len(attrs) != 3 || attrs[0] != "A" {
		t.Fatalf("attributes = %v", attrs)
	}
	if got := q.AttributesOf("R2"); len(got) != 2 || got[0] != "B" {
		t.Fatalf("AttributesOf(R2) = %v", got)
	}
	if q.AttributesOf("nope") != nil {
		t.Fatal("unknown relation returned attrs")
	}
	if !q.IsLine() || q.IsStar() {
		t.Fatal("L2 shape detection wrong")
	}
}

func TestInstanceAddValidation(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	if err := in.Add("nope", 1, 2); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := in.Add("R1", 1); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := in.Add("R1", 1.5, 2); err == nil {
		t.Fatal("float accepted")
	}
	if err := in.Add("R1", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := in.Add("R1", 1, 2); err != nil {
		t.Fatal(err) // duplicate is ignored, not an error
	}
	if in.Size("R1") != 1 {
		t.Fatalf("size = %d, want 1 (dedup)", in.Size("R1"))
	}
}

func TestRunSimpleJoin(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	in.MustAdd("R1", 1, 10)
	in.MustAdd("R1", 2, 20)
	in.MustAdd("R2", 10, 100)
	in.MustAdd("R2", 10, 101)
	var rows []Row
	res, err := Run(q, in, Options{Memory: 16, Block: 4}, func(r Row) { rows = append(rows, r) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || len(rows) != 2 {
		t.Fatalf("count = %d, rows = %d", res.Count, len(rows))
	}
	for _, r := range rows {
		if r["A"] != int64(1) || r["B"] != int64(10) {
			t.Fatalf("row = %v", r)
		}
	}
	if res.Stats.IOs <= 0 {
		t.Fatal("no I/Os charged")
	}
}

func TestRunWithStrings(t *testing.T) {
	q, err := NewQuery().
		Relation("Users", "user", "city").
		Relation("Cities", "city", "country").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := q.NewInstance()
	in.MustAdd("Users", "alice", "paris")
	in.MustAdd("Users", "bob", "tokyo")
	in.MustAdd("Cities", "paris", "france")
	in.MustAdd("Cities", "tokyo", "japan")
	in.MustAdd("Cities", "lima", "peru")
	var rows []Row
	if _, err := Run(q, in, Options{Memory: 16, Block: 4}, func(r Row) {
		rows = append(rows, r)
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i]["user"].(string) < rows[j]["user"].(string) })
	if rows[0]["user"] != "alice" || rows[0]["country"] != "france" {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestCountOnly(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	for i := 0; i < 20; i++ {
		in.MustAdd("R1", i, i%4)
		in.MustAdd("R2", i%4, i)
	}
	res, err := Count(q, in, Options{Memory: 16, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 { // 4 groups of 5x5
		t.Fatalf("count = %d, want 100", res.Count)
	}
}

func TestRunLineSpecialization(t *testing.T) {
	q, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "C", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	mk := func() *Instance {
		in := q.NewInstance()
		for i := 0; i < 60; i++ {
			in.MustAdd("R1", rng.Intn(8), rng.Intn(8))
			in.MustAdd("R2", rng.Intn(8), rng.Intn(8))
			in.MustAdd("R3", rng.Intn(8), rng.Intn(8))
		}
		return in
	}
	in := mk()
	specialized, err := Count(q, in, Options{Memory: 16, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	general, err := Count(q, in, Options{Memory: 16, Block: 4, NoLineSpecialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if specialized.Count != general.Count {
		t.Fatalf("specialized count %d != general %d", specialized.Count, general.Count)
	}
	if specialized.Plan == general.Plan {
		t.Fatalf("plans should differ: %q vs %q", specialized.Plan, general.Plan)
	}
}

func TestRunRejectsForeignInstance(t *testing.T) {
	q1 := buildL2(t)
	q2 := buildL2(t)
	in := q2.NewInstance()
	if _, err := Run(q1, in, Options{}, nil); err == nil {
		t.Fatal("foreign instance accepted")
	}
}

func TestStrategiesAgree(t *testing.T) {
	q, err := NewQuery().
		Relation("Core", "X", "Y").
		Relation("P1", "X", "U1").
		Relation("P2", "Y", "U2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	in := q.NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("Core", rng.Intn(5), rng.Intn(5))
		in.MustAdd("P1", rng.Intn(5), rng.Intn(20))
		in.MustAdd("P2", rng.Intn(5), rng.Intn(20))
	}
	var counts []int64
	for _, s := range []Strategy{StrategyFirst, StrategySmallest, StrategyExhaustive} {
		res, err := Count(q, in, Options{Memory: 16, Block: 4, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("strategy counts differ: %v", counts)
	}
}

func TestExplain(t *testing.T) {
	q, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "C", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Explain(q, map[string]float64{"R1": 1024, "R2": 4096, "R3": 1024},
		Options{Memory: 64, Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shape != "line" {
		t.Fatalf("shape = %q", ex.Shape)
	}
	if ex.FractionalCover["R2"] != 0 || ex.FractionalCover["R1"] != 1 {
		t.Fatalf("cover = %v", ex.FractionalCover)
	}
	if len(ex.MinCover) != 2 {
		t.Fatalf("min cover = %v", ex.MinCover)
	}
	if ex.Branches < 1 {
		t.Fatal("no GenS branches")
	}
	if !ex.Balanced {
		t.Fatal("L3 must be balanced")
	}
	if ex.LinePlan == "" {
		t.Fatal("no line plan")
	}
	if s := ex.String(); s == "" {
		t.Fatal("empty rendering")
	}
	// Missing size errors.
	if _, err := Explain(q, map[string]float64{"R1": 10}, Options{}); err == nil {
		t.Fatal("missing sizes accepted")
	}
}

func TestSkipReduceStillCorrect(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	in.MustAdd("R1", 1, 10)
	in.MustAdd("R1", 2, 99) // dangling
	in.MustAdd("R2", 10, 100)
	a, err := Count(q, in, Options{Memory: 16, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(q, in, Options{Memory: 16, Block: 4, skipReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 1 || b.Count != 1 {
		t.Fatalf("counts = %d, %d; want 1, 1", a.Count, b.Count)
	}
}

func ExampleRun() {
	q, _ := NewQuery().
		Relation("Follows", "src", "mid").
		Relation("Follows2", "mid", "dst").
		Build()
	in := q.NewInstance()
	in.MustAdd("Follows", "ann", "bob")
	in.MustAdd("Follows2", "bob", "cat")
	res, _ := Run(q, in, Options{Memory: 16, Block: 4}, func(r Row) {
		fmt.Println(r["src"], "->", r["mid"], "->", r["dst"])
	})
	fmt.Println("results:", res.Count)
	// Output:
	// ann -> bob -> cat
	// results: 1
}
