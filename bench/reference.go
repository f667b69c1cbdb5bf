package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"acyclicjoin"
	"acyclicjoin/internal/count"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// buildQuery builds the public query and instance from the generated
// relations; it is the work setup_s times.
func buildQuery(rels []relSpec) (*acyclicjoin.Query, *acyclicjoin.Instance, error) {
	b := acyclicjoin.NewQuery()
	for _, r := range rels {
		b.Relation(r.name, r.attrs...)
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	inst := q.NewInstance()
	vals := make([]acyclicjoin.Value, 0, 4)
	for _, r := range rels {
		for _, t := range r.rows {
			vals = vals[:0]
			for _, v := range t {
				vals = append(vals, v)
			}
			if err := inst.Add(r.name, vals...); err != nil {
				return nil, nil, err
			}
		}
		if inst.Size(r.name) != len(r.rows) {
			return nil, nil, fmt.Errorf("relation %s: generator produced duplicate tuples", r.name)
		}
	}
	return q, inst, nil
}

// layerQuery is the query as the internal layers see it: the hypergraph
// with QueryBuilder.Build's first-appearance attribute numbering, each
// relation's schema in declared column order, and the attribute names by ID.
type layerQuery struct {
	g       *hypergraph.Graph
	schemas []tuple.Schema
	names   []string
}

func newLayerQuery(rels []relSpec) (*layerQuery, error) {
	lq := &layerQuery{}
	ids := map[string]int{}
	var edges []*hypergraph.Edge
	for i, r := range rels {
		schema := make(tuple.Schema, len(r.attrs))
		for j, a := range r.attrs {
			id, ok := ids[a]
			if !ok {
				id = len(lq.names)
				ids[a] = id
				lq.names = append(lq.names, a)
			}
			schema[j] = id
		}
		lq.schemas = append(lq.schemas, schema)
		edges = append(edges, &hypergraph.Edge{ID: i, Name: r.name, Attrs: append([]hypergraph.Attr{}, schema...)})
	}
	g, err := hypergraph.New(edges)
	if err != nil {
		return nil, err
	}
	lq.g = g
	return lq, nil
}

// load places the relations on d without charging, as the public API does.
func (lq *layerQuery) load(d *extmem.Disk, rels []relSpec) relation.Instance {
	restore := d.Suspend()
	in := relation.Instance{}
	for i, r := range rels {
		in[i] = relation.FromTuples(d, lq.schemas[i], r.rows)
	}
	restore()
	d.ResetStats()
	return in
}

// reference is the expected output of a workload, computed once at set-up
// by the enumeration oracle.
type reference struct {
	count       int64
	fingerprint uint64
}

func computeReference(lq *layerQuery, rels []relSpec) (reference, error) {
	in := lq.load(extmem.NewDisk(extmem.Config{M: benchM, B: benchB}), rels)
	h := newRowHasher(lq.names)
	var ref reference
	err := count.Enumerate(lq.g, in, func(a tuple.Assignment) {
		ref.count++
		ref.fingerprint += h.assignment(a)
	})
	return ref, err
}

// rowHasher computes the order-insensitive row fingerprint: the wrapping
// sum over rows of FNV-64a(name, value, name, value, ...) with attribute
// names in sorted order.
type rowHasher struct {
	names []string // sorted
	ids   []int    // attribute ID of names[i]
	buf   []byte
}

func newRowHasher(names []string) *rowHasher {
	h := &rowHasher{names: append([]string{}, names...)}
	sort.Strings(h.names)
	pos := map[string]int{}
	for id, n := range names {
		pos[n] = id
	}
	for _, n := range h.names {
		h.ids = append(h.ids, pos[n])
	}
	return h
}

func (h *rowHasher) sum(value func(i int) int64) uint64 {
	h.buf = h.buf[:0]
	for i, n := range h.names {
		h.buf = append(h.buf, n...)
		h.buf = binary.LittleEndian.AppendUint64(append(h.buf, 0), uint64(value(i)))
	}
	f := fnv.New64a()
	f.Write(h.buf)
	return f.Sum64()
}

func (h *rowHasher) assignment(a tuple.Assignment) uint64 {
	return h.sum(func(i int) int64 { return a.Get(h.ids[i]) })
}

// row hashes a public Row; a missing or non-integer value hashes as -1,
// which no generated value takes, so it shows up as a mismatch.
func (h *rowHasher) row(r acyclicjoin.Row) uint64 {
	return h.sum(func(i int) int64 {
		if v, ok := r[h.names[i]].(int64); ok {
			return v
		}
		return -1
	})
}
