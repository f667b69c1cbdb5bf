package acyclicjoin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNegativeIntsDoNotJoinStrings pins the per-attribute dictionary: a
// string and a negative integer never share a code, and an attribute cannot
// hold both a string and an integer ≤ -2. With one dictionary for the whole
// instance, -2 in R1.B joined R2's "x" and -2 in R1.A read back as "x".
func TestNegativeIntsDoNotJoinStrings(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	in.MustAdd("R2", "x", 9)
	err := in.Add("R1", 1, -2)
	if err == nil || !strings.Contains(err.Error(), `relation "R1" column "B"`) {
		t.Fatalf("Add(R1, 1, -2) with B holding a string: err = %v, want one naming R1 and B", err)
	}
	if in.Size("R1") != 0 {
		t.Fatalf("rejected row kept: Size(R1) = %d", in.Size("R1"))
	}
	res, err := Count(q, in, Options{Memory: 16, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("Count = %d, want 0", res.Count)
	}

	// Negative integers in an attribute without strings, and -1 beside
	// strings, keep their values.
	in = q.NewInstance()
	in.MustAdd("R2", "x", 9)
	in.MustAdd("R2", -1, -3)
	in.MustAdd("R1", -2, "x")
	in.MustAdd("R1", -3, -1)
	var got []string
	if _, err := Run(q, in, Options{Memory: 16, Block: 4}, func(r Row) {
		got = append(got, fmt.Sprintf("%#v %#v %#v", r["A"], r["B"], r["C"]))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{`-2 "x" 9`, `-3 -1 -3`}
	if !slices.Equal(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
}

// TestAttributeKindConflicts checks the attribute rule in both orders and
// that a rejected row leaves no trace: neither its row nor its new strings.
func TestAttributeKindConflicts(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	in.MustAdd("R1", -5, 1)
	if err := in.Add("R1", "s", 2); err == nil || !strings.Contains(err.Error(), `column "A"`) {
		t.Fatalf("string into an attribute holding -5: err = %v", err)
	}
	in.MustAdd("R2", "x", 9)
	// "t" is new to C, but the row fails at B: C must stay string-free.
	if err := in.Add("R2", -4, "t"); err == nil || !strings.Contains(err.Error(), `column "B"`) {
		t.Fatalf("-4 into an attribute holding strings: err = %v", err)
	}
	if err := in.Add("R2", "y", -7); err != nil {
		t.Fatalf("a rejected row's string stayed in its attribute: %v", err)
	}
	if in.Size("R1") != 1 || in.Size("R2") != 2 {
		t.Fatalf("sizes = %d, %d, want 1, 2", in.Size("R1"), in.Size("R2"))
	}
}

// TestReservedIntegerRejected pins the other lost value: -2^62 is the
// engine's unbound-attribute sentinel, so a row holding it used to vanish
// from every join. Add now rejects it.
func TestReservedIntegerRejected(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	err := in.Add("R1", 1, int64(-1<<62))
	if err == nil || !strings.Contains(err.Error(), `relation "R1" column "B"`) {
		t.Fatalf("Add(R1, 1, -2^62): err = %v, want one naming R1 and B", err)
	}
	if err := in.Add("R2", -1<<62, 9); err == nil {
		t.Fatal("Add(R2, -2^62, 9) accepted")
	}
	if in.Size("R1") != 0 || in.Size("R2") != 0 {
		t.Fatalf("rejected rows kept: sizes %d, %d", in.Size("R1"), in.Size("R2"))
	}
	in.MustAdd("R1", 1, -1<<62+1)
	in.MustAdd("R2", -1<<62+1, 9)
	res, err := Count(q, in, Options{Memory: 16, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("Count = %d, want 1", res.Count)
	}
}

// TestInstanceRowLimit checks that a full relation rejects a row with an
// error rather than overflowing the index's int32 row numbers.
func TestInstanceRowLimit(t *testing.T) {
	q := buildL2(t)
	in := q.NewInstance()
	in.rels[0].n = maxRows
	if err := in.Add("R1", 1, 2); err == nil || !strings.Contains(err.Error(), `relation "R1"`) {
		t.Fatalf("Add to a full relation: err = %v", err)
	}
}

// TestAddIntegerTypes covers every Go integer type Value allows, and the
// values Add must reject.
func TestAddIntegerTypes(t *testing.T) {
	q, err := NewQuery().Relation("R", "A").Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    Value
		want int64
		err  string
	}{
		{v: int(-7), want: -7},
		{v: int8(-8), want: -8},
		{v: int16(-16), want: -16},
		{v: int32(-32), want: -32},
		{v: int64(-64), want: -64},
		{v: uint(7), want: 7},
		{v: uint8(3), want: 3},
		{v: uint16(16), want: 16},
		{v: uint32(math.MaxUint32), want: math.MaxUint32},
		{v: uint64(math.MaxInt64), want: math.MaxInt64},
		{v: uint64(math.MaxInt64 + 1), err: "overflows int64"},
		{v: uint(math.MaxUint), err: "overflows int64"},
		{v: int64(math.MinInt64), want: math.MinInt64},
		{v: int64(-1 << 62), err: "reserved"},
		{v: 1.5, err: "unsupported value type float64"},
		{v: nil, err: "unsupported value type <nil>"},
	}
	for _, c := range cases {
		in := q.NewInstance()
		err := in.Add("R", c.v)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("Add(%T %v): err = %v, want %q", c.v, c.v, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Add(%T %v): %v", c.v, c.v, err)
			continue
		}
		var got []Value
		if _, err := Run(q, in, Options{}, func(r Row) { got = append(got, r["A"]) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != Value(c.want) {
			t.Errorf("Add(%T %v) emitted %#v, want int64 %d", c.v, c.v, got, c.want)
		}
	}
}

// TestInstanceDedup drives the store's index through many rehashes:
// duplicates are dropped whenever they come, rows keep their first-arrival
// order and Size is exact after every Add. Arity 10 rows differ only in the
// last cell from their neighbours, so equal hashes' prefixes do not decide.
func TestInstanceDedup(t *testing.T) {
	for _, arity := range []int{1, 2, 10} {
		t.Run(fmt.Sprint("arity", arity), func(t *testing.T) {
			attrs := make([]string, arity)
			for j := range attrs {
				attrs[j] = fmt.Sprint("a", j)
			}
			q, err := NewQuery().Relation("R", attrs...).Build()
			if err != nil {
				t.Fatal(err)
			}
			const n = 5000
			rowOf := func(i int) []Value {
				row := make([]Value, arity)
				row[0] = i - n/2
				if arity > 1 {
					row[0] = i/3 - n/6
					row[arity-1] = i % 3
				}
				for j := 1; j < arity-1; j++ {
					row[j] = j
				}
				return row
			}
			in := q.NewInstance()
			for i := 0; i < n; i++ {
				in.MustAdd("R", rowOf(i)...)
				in.MustAdd("R", rowOf(i/2)...)
				in.MustAdd("R", rowOf(i)...)
				if in.Size("R") != i+1 {
					t.Fatalf("after row %d: Size = %d", i, in.Size("R"))
				}
			}
			for i := n - 1; i >= 0; i-- {
				in.MustAdd("R", rowOf(i)...)
			}
			if in.Size("R") != n {
				t.Fatalf("after re-adding every row: Size = %d, want %d", in.Size("R"), n)
			}
			cells := in.rels[0].cells
			if len(cells) != n*arity {
				t.Fatalf("%d cells, want %d", len(cells), n*arity)
			}
			for i := 0; i < n; i++ {
				for j, v := range rowOf(i) {
					if got := cells[i*arity+j]; got != int64(v.(int)) {
						t.Fatalf("row %d cell %d = %d, want %d (first-arrival order)", i, j, got, v)
					}
				}
			}
		})
	}
}

// TestInstanceAddAllocs guards the store: adding rows of small integers
// (boxed without allocation) allocates only when the cells or the index
// grow, a few dozen times for 10,000 rows, not once per row.
func TestInstanceAddAllocs(t *testing.T) {
	q := buildL2(t)
	const n = 10000
	allocs := testing.AllocsPerRun(3, func() {
		in := q.NewInstance()
		for i := 0; i < n; i++ {
			in.MustAdd("R1", i/100, i%100)
		}
	})
	if allocs > 64 {
		t.Fatalf("adding %d rows allocated %v times, want at most 64", n, allocs)
	}
}

// BenchmarkInstanceAdd times building an instance the size of bench
// line5-file's: five relations of 2,048 distinct two-column rows.
func BenchmarkInstanceAdd(b *testing.B) {
	qb := NewQuery()
	for i := 0; i < 5; i++ {
		qb.Relation(fmt.Sprint("R", i), fmt.Sprint("a", i), fmt.Sprint("a", i+1))
	}
	q, err := qb.Build()
	if err != nil {
		b.Fatal(err)
	}
	// The values are boxed up front, so only Add is timed.
	rng := rand.New(rand.NewSource(1))
	rows := make([][]Value, 2048)
	for i := range rows {
		rows[i] = []Value{int64(i), rng.Int63n(1 << 20)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := q.NewInstance()
		for _, name := range q.Relations() {
			for _, r := range rows {
				if err := in.Add(name, r...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(5*len(rows)), "rows/op")
}

// oracleValue is v as an emitted Row holds it: int64 or string.
func oracleValue(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case uint8:
		return int64(x)
	case int16:
		return int64(x)
	}
	return v
}

// FuzzInstanceOracle adds random rows, duplicates and rejected values
// included, to a random acyclic query's instance, and checks every Add's
// error, every Size and the emitted row multiset against a map-based model
// of the instance and a nested-loop join over it.
func FuzzInstanceOracle(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(2), uint8(60))
	f.Add(int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, adds uint8) {
		rng := rand.New(rand.NewSource(seed))
		q := randomTreeQuery(rng)
		in := q.NewInstance()
		pool := []Value{0, 1, 2, -1, -2, -3, int64(-1 << 62), uint8(1), int16(-2), "a", "b", "c"}
		rels := q.Relations()
		seen := make([]map[string]bool, len(rels))
		rows := make([][][]Value, len(rels))
		for i := range seen {
			seen[i] = map[string]bool{}
		}
		hasStr, hasNeg := map[string]bool{}, map[string]bool{}
		for range int(adds) % 97 {
			i := rng.Intn(len(rels))
			attrs := q.relAttrs[i]
			row := make([]Value, len(attrs))
			wantErr := ""
			for j, a := range attrs {
				row[j] = pool[rng.Intn(len(pool))]
				switch v := oracleValue(row[j]).(type) {
				case string:
					if hasNeg[a] && wantErr == "" {
						wantErr = fmt.Sprintf("column %q", a)
					}
				case int64:
					if (v == -1<<62 || v <= -2 && hasStr[a]) && wantErr == "" {
						wantErr = fmt.Sprintf("column %q", a)
					}
				}
			}
			err := in.Add(rels[i], row...)
			if wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), wantErr) ||
					!strings.Contains(err.Error(), fmt.Sprintf("relation %q", rels[i])) {
					t.Fatalf("Add(%s, %v): err = %v, want one naming %s", rels[i], row, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Add(%s, %v): %v", rels[i], row, err)
			}
			for j, a := range attrs {
				row[j] = oracleValue(row[j])
				switch v := row[j].(type) {
				case string:
					hasStr[a] = true
				case int64:
					hasNeg[a] = hasNeg[a] || v <= -2
				}
			}
			if k := fmt.Sprintf("%#v", row); !seen[i][k] {
				seen[i][k] = true
				rows[i] = append(rows[i], row)
			}
			if got := in.Size(rels[i]); got != len(rows[i]) {
				t.Fatalf("Size(%s) = %d, want %d", rels[i], got, len(rows[i]))
			}
		}
		var want []string
		bind := map[string]Value{}
		var join func(i int)
		join = func(i int) {
			if i == len(rows) {
				want = append(want, fmt.Sprintf("%#v", bind))
				return
			}
			for _, row := range rows[i] {
				var bound []string
				ok := true
				for j, a := range q.relAttrs[i] {
					if v, has := bind[a]; !has {
						bind[a] = row[j]
						bound = append(bound, a)
					} else if v != row[j] {
						ok = false
						break
					}
				}
				if ok {
					join(i + 1)
				}
				for _, a := range bound {
					delete(bind, a)
				}
			}
		}
		join(0)
		var got []string
		res, err := Run(q, in, Options{Memory: 64, Block: 8}, func(r Row) {
			got = append(got, fmt.Sprintf("%#v", map[string]Value(r)))
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		sort.Strings(got)
		if res.Count != int64(len(want)) || !slices.Equal(got, want) {
			t.Fatalf("Run emitted %d rows (Count %d), want %d:\ngot  %q\nwant %q", len(got), res.Count, len(want), got, want)
		}
	})
}
