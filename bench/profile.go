package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzip-compressed profile.proto that runtime/pprof
// writes, reading only the fields CPU attribution needs, so the benchmark
// needs no module beyond the standard library. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// cpuProfile is a decoded profile: each sample's stack, innermost frame
// first, inlined frames expanded, with its sample count.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	count  int64
	frames []string // function names, leaf first
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					return appendVarints(&s.locs, v, b)
				case 2: // Sample.value
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && i < int64(len(strs)) {
					cs.frames = append(cs.frames, strs[i])
				}
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v is the
// value of a varint field, b the payload of a length-delimited one. Fixed
// 32- and 64-bit fields are skipped; profile.proto attribution uses none.
func walkFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder may
// write packed (payload b) or one value at a time (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// attribute splits a profile's samples into shares that sum to 1: each
// sample goes to classify's answer for its innermost frame that classify
// names (returns non-empty). A sample with no such frame counts as "gc" when
// the background mark worker is on its stack, else "other".
func attribute(p *cpuProfile, classify func(fn string) string) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		cat := ""
		for _, f := range s.frames {
			if cat = classify(f); cat != "" {
				break
			}
		}
		if cat == "" {
			cat = "other"
			for _, f := range s.frames {
				if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
					cat = "gc"
					break
				}
			}
		}
		counts[cat] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for c, n := range counts {
		shares[c] = float64(n) / float64(total)
	}
	return shares
}

// libraryLayers are the packages with their own cpu.* metric; other library
// packages fall into cpu.other.
var libraryLayers = map[string]bool{
	"core": true, "relation": true, "extsort": true, "extmem": true, "opcache": true,
	"diskfile": true, "tuple": true, "hypergraph": true,
}

// classifyLibrary names the cpu.* layer of a function of the library: the
// public package is "acyclicjoin", an internal package its last path
// element. Functions outside the library return "".
func classifyLibrary(fn string) string {
	if strings.HasPrefix(fn, "acyclicjoin.") {
		return "acyclicjoin"
	}
	rest, ok := strings.CutPrefix(fn, "acyclicjoin/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "[("); i >= 0 { // receiver or type arguments
		pkg = pkg[:i]
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	if libraryLayers[pkg] {
		return pkg
	}
	return "other"
}
