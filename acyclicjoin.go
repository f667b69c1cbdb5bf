// Package acyclicjoin is a worst-case I/O-optimal join library for
// Berge-acyclic queries, reproducing Hu & Yi, "Towards a Worst-Case
// I/O-Optimal Algorithm for Acyclic Joins" (PODS 2016).
//
// Joins run on a simulated external-memory machine (memory of M tuples,
// blocks of B tuples) that counts block I/Os exactly, so the library doubles
// as a measurement harness for the paper's bounds. Results are delivered
// through an emit callback and never written to disk — the paper's "emit
// model".
//
// Basic usage:
//
//	q, _ := acyclicjoin.NewQuery().
//	    Relation("R1", "A", "B").
//	    Relation("R2", "B", "C").
//	    Build()
//	inst := q.NewInstance()
//	inst.Add("R1", 1, 10)
//	inst.Add("R2", 10, 100)
//	res, _ := acyclicjoin.Run(q, inst, acyclicjoin.Options{Memory: 1024, Block: 64},
//	    func(row acyclicjoin.Row) { fmt.Println(row) })
//	fmt.Println(res.Stats.IOs)
//
// String values are dictionary-encoded per attribute (see Value); Explain
// reports edge covers, the AGM bound, and the paper's GenS-based cost bound
// for a query.
package acyclicjoin

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/tuple"
)

// Value is a column value. Instance.Add takes a string or a value of any Go
// integer type (int, int8, int16, int32, int64, uint, uint8, uint16, uint32,
// uint64) that fits in an int64; emitted Rows hold int64 or string. Strings
// are dictionary-encoded per attribute, so an attribute may hold strings or
// integers ≤ -2 but not both, and the integer -2^62 is reserved; Add rejects
// either with an error.
type Value interface{}

// Row is one join result keyed by attribute name.
type Row map[string]Value

// QueryBuilder accumulates relations before Build validates the query.
type QueryBuilder struct {
	relNames  []string
	relAttrs  [][]string
	attrIDs   map[string]int
	attrNames []string
	err       error
}

// NewQuery starts a query definition.
func NewQuery() *QueryBuilder {
	return &QueryBuilder{attrIDs: map[string]int{}}
}

// Relation adds a relation with the given name and attribute names.
// Attributes shared between relations (same name) are join attributes.
func (b *QueryBuilder) Relation(name string, attrs ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if name == "" {
		b.err = fmt.Errorf("acyclicjoin: relation name must be non-empty")
		return b
	}
	for _, r := range b.relNames {
		if r == name {
			b.err = fmt.Errorf("acyclicjoin: duplicate relation name %q", name)
			return b
		}
	}
	if len(attrs) == 0 {
		b.err = fmt.Errorf("acyclicjoin: relation %q needs at least one attribute", name)
		return b
	}
	for _, a := range attrs {
		if _, ok := b.attrIDs[a]; !ok {
			b.attrIDs[a] = len(b.attrNames)
			b.attrNames = append(b.attrNames, a)
		}
	}
	b.relNames = append(b.relNames, name)
	b.relAttrs = append(b.relAttrs, attrs)
	return b
}

// Build validates the query (Berge-acyclicity included) and freezes it.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.relNames) == 0 {
		return nil, fmt.Errorf("acyclicjoin: query has no relations")
	}
	edges := make([]*hypergraph.Edge, len(b.relNames))
	for i, name := range b.relNames {
		e := &hypergraph.Edge{ID: i, Name: name}
		for _, a := range b.relAttrs[i] {
			e.Attrs = append(e.Attrs, b.attrIDs[a])
		}
		edges[i] = e
	}
	g, err := hypergraph.New(edges)
	if err != nil {
		return nil, fmt.Errorf("acyclicjoin: %w", err)
	}
	if !g.IsBergeAcyclic() {
		return nil, fmt.Errorf("acyclicjoin: query is not Berge-acyclic; see the package documentation for the acyclicity notion used (two relations may share at most one attribute, and the incidence graph must be a forest)")
	}
	q := &Query{
		graph:     g,
		relIndex:  map[string]int{},
		attrIDs:   map[string]int{},
		attrNames: append([]string{}, b.attrNames...),
		relAttrs:  make([][]string, len(b.relAttrs)),
		schemas:   make([]tuple.Schema, len(b.relAttrs)),
	}
	for i, name := range b.relNames {
		q.relIndex[name] = i
		q.relAttrs[i] = append([]string{}, b.relAttrs[i]...)
		q.schemas[i] = slices.Clone(edges[i].Attrs)
	}
	for a, id := range b.attrIDs {
		q.attrIDs[a] = id
	}
	return q, nil
}

// Query is a validated Berge-acyclic join query.
type Query struct {
	graph     *hypergraph.Graph
	relIndex  map[string]int
	relAttrs  [][]string
	attrIDs   map[string]int
	attrNames []string
	// schemas holds each relation's attribute IDs in declared column order.
	schemas []tuple.Schema
}

// Relations returns the relation names in declaration order.
func (q *Query) Relations() []string {
	out := make([]string, len(q.relAttrs))
	for name, i := range q.relIndex {
		out[i] = name
	}
	return out
}

// Attributes returns all attribute names, sorted.
func (q *Query) Attributes() []string {
	out := append([]string{}, q.attrNames...)
	sort.Strings(out)
	return out
}

// AttributesOf returns the attribute names of one relation, in declaration
// order, or nil if the relation does not exist.
func (q *Query) AttributesOf(relation string) []string {
	i, ok := q.relIndex[relation]
	if !ok {
		return nil
	}
	return append([]string{}, q.relAttrs[i]...)
}

// IsLine reports whether the query is a line join (Section 6).
func (q *Query) IsLine() bool {
	_, ok := q.graph.AsLine()
	return ok
}

// IsStar reports whether the query is a standalone star join (Section 5).
func (q *Query) IsStar() bool {
	_, ok := q.graph.AsStandaloneStar()
	return ok
}

// Instance collects the tuples of each relation prior to a Run. Rows are
// deduplicated (the join uses set semantics).
type Instance struct {
	q    *Query
	rels []instRel
	// dicts holds one string dictionary per attribute ID.
	dicts []dictionary
}

// maxRows bounds a relation's rows, so that row numbers and the index's
// slot count fit in an int32.
const maxRows = 1 << 30

// instRel is one relation of an Instance: its distinct rows back to back,
// arity cells each, in the order they first arrived, and an open-addressing
// index over them for deduplication.
type instRel struct {
	arity int
	cells []int64
	n     int
	// slots holds row numbers plus one (0 marks an empty slot), probed
	// linearly from the hash of a row's cells; it is kept at most half full.
	slots []int32
}

// NewInstance creates an empty instance of the query.
func (q *Query) NewInstance() *Instance {
	in := &Instance{
		q:     q,
		rels:  make([]instRel, len(q.schemas)),
		dicts: make([]dictionary, len(q.attrNames)),
	}
	for i, s := range q.schemas {
		in.rels[i].arity = len(s)
	}
	return in
}

// Add appends one tuple to the named relation, with values given in the
// relation's declared attribute order. Each value is a string or an integer
// of any Go integer type; see Value for the values Add rejects. Duplicate
// tuples are ignored.
func (in *Instance) Add(relationName string, values ...Value) error {
	i, ok := in.q.relIndex[relationName]
	if !ok {
		return fmt.Errorf("acyclicjoin: unknown relation %q", relationName)
	}
	schema := in.q.schemas[i]
	if len(values) != len(schema) {
		return fmt.Errorf("acyclicjoin: relation %q expects %d values, got %d",
			relationName, len(schema), len(values))
	}
	// The row is encoded straight onto the end of the relation's cells and
	// cut off again if it is rejected or already present. A string the
	// attribute has not seen yet is coded only once the whole row is valid,
	// and so is the mark that an attribute holds integers ≤ -2.
	r := &in.rels[i]
	if r.n == maxRows {
		return fmt.Errorf("acyclicjoin: relation %q already holds %d rows, the most an instance allows",
			relationName, maxRows)
	}
	off := len(r.cells)
	for j, v := range values {
		x, err := in.dicts[schema[j]].code(v)
		if err != nil {
			r.cells = r.cells[:off]
			return fmt.Errorf("acyclicjoin: relation %q column %q: %w",
				relationName, in.q.relAttrs[i][j], err)
		}
		r.cells = append(r.cells, x)
	}
	row := r.cells[off:]
	for j, x := range row {
		// In an attribute that holds strings, x ≤ -2 is a string's code.
		if d := &in.dicts[schema[j]]; x == tuple.Unset {
			row[j] = d.add(values[j].(string))
		} else if x <= -2 && len(d.byStr) == 0 {
			d.negative = true
		}
	}
	if !r.insert(off) {
		r.cells = r.cells[:off]
	}
	return nil
}

// MustAdd is Add but panics on error; for static examples and tests.
func (in *Instance) MustAdd(relationName string, values ...Value) {
	if err := in.Add(relationName, values...); err != nil {
		panic(err)
	}
}

// Size returns the current number of (distinct) tuples in a relation.
func (in *Instance) Size(relationName string) int {
	if i, ok := in.q.relIndex[relationName]; ok {
		return in.rels[i].n
	}
	return 0
}

// insert indexes the row that starts at cell off, the last one in cells,
// and reports whether it is new; a duplicate is left for the caller to cut.
func (r *instRel) insert(off int) bool {
	if 2*(r.n+1) > len(r.slots) {
		r.rehash()
	}
	row := r.cells[off:]
	mask := len(r.slots) - 1
	for s := hashRow(row) & mask; ; s = (s + 1) & mask {
		k := int(r.slots[s])
		if k == 0 {
			r.n++
			r.slots[s] = int32(r.n)
			return true
		}
		if at := (k - 1) * r.arity; slices.Equal(r.cells[at:at+r.arity], row) {
			return false
		}
	}
}

// rehash doubles the index (16 slots at first) and re-enters every row.
func (r *instRel) rehash() {
	r.slots = make([]int32, max(16, 2*len(r.slots)))
	mask := len(r.slots) - 1
	for k := 1; k <= r.n; k++ {
		at := (k - 1) * r.arity
		s := hashRow(r.cells[at:at+r.arity]) & mask
		for r.slots[s] != 0 {
			s = (s + 1) & mask
		}
		r.slots[s] = int32(k)
	}
}

// hashRow is a multiply-xorshift hash of a row's cells.
func hashRow(row []int64) int {
	h := uint64(len(row))
	for _, x := range row {
		h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return int(h ^ h>>32)
}

// dictionary encodes one attribute's strings as -2, -3, ... in the order the
// attribute first sees them; integers are stored as they are. An attribute
// that holds a string may therefore hold no integer ≤ -2, which would read
// back as a string; -1 and the non-negative integers cannot collide with a
// code. Each attribute has its own dictionary, so only the values a join can
// compare share one.
type dictionary struct {
	byStr []string
	ids   map[string]int64
	// negative marks an attribute that holds an integer ≤ -2.
	negative bool
}

// code returns v's code in this attribute, or tuple.Unset for a string the
// attribute has not coded yet (add codes it); it changes nothing.
func (d *dictionary) code(v Value) (int64, error) {
	var x int64
	switch v := v.(type) {
	case int64:
		x = v
	case int:
		x = int64(v)
	case string:
		if d.negative {
			return 0, fmt.Errorf("string %q in an attribute that holds integers ≤ -2", v)
		}
		if id, ok := d.ids[v]; ok {
			return id, nil
		}
		return tuple.Unset, nil
	case int32:
		x = int64(v)
	case int16:
		x = int64(v)
	case int8:
		x = int64(v)
	case uint:
		if uint64(v) > math.MaxInt64 {
			return 0, fmt.Errorf("integer %d overflows int64", v)
		}
		x = int64(v)
	case uint64:
		if v > math.MaxInt64 {
			return 0, fmt.Errorf("integer %d overflows int64", v)
		}
		x = int64(v)
	case uint32:
		x = int64(v)
	case uint16:
		x = int64(v)
	case uint8:
		x = int64(v)
	default:
		return 0, fmt.Errorf("unsupported value type %T", v)
	}
	if x == tuple.Unset {
		return 0, fmt.Errorf("integer %d is reserved", x)
	}
	if x <= -2 && len(d.byStr) > 0 {
		return 0, fmt.Errorf("integer %d in an attribute that holds strings", x)
	}
	return x, nil
}

// add codes a string the attribute has not seen.
func (d *dictionary) add(s string) int64 {
	if d.ids == nil {
		d.ids = map[string]int64{}
	}
	id := int64(-2 - len(d.byStr)) // -2, -3, ... (avoid -1 and tuple.Unset)
	d.ids[s] = id
	d.byStr = append(d.byStr, s)
	return id
}

func (d *dictionary) decode(x int64) Value {
	if x <= -2 {
		if i := int(-2 - x); i < len(d.byStr) {
			return d.byStr[i]
		}
	}
	return x
}
