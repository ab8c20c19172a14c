package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Attribution of CPU-profile samples to fleetsim modules. runtime/pprof
// writes a gzipped profile.proto; the decoder below reads just the fields
// attribution needs (samples, locations, functions, strings), so the
// benchmark needs no module outside the standard library.

const internalPrefix = "fleetsim/internal/"

// moduleShares decodes a CPU profile and returns each module's share of
// the samples in percent, keyed "cpu.<module>". A sample belongs to the
// innermost fleetsim/internal frame on its stack; samples without one
// count as cpu.runtime. Every module of the catalog, plus runtime and
// other, appears in the result, so the shares always sum to 100.
func moduleShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	known := map[string]bool{}
	counts := map[string]int64{}
	for _, m := range modules {
		known[m] = true
		counts[m] = 0
	}
	counts["runtime"], counts["other"] = 0, 0

	funcModule := map[uint64]string{}
	for id, nameIdx := range p.funcName {
		name := ""
		if nameIdx >= 0 && int(nameIdx) < len(p.strings) {
			name = p.strings[nameIdx]
		}
		funcModule[id] = moduleOf(name)
	}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if m := funcModule[fn]; m != "" {
					mod = m
					break stack
				}
			}
		}
		if mod != "runtime" && !known[mod] {
			mod = "other"
		}
		counts[mod] += s.n
		total += s.n
	}
	shares := make(map[string]float64, len(counts))
	for m, c := range counts {
		v := 0.0
		if total > 0 {
			v = 100 * float64(c) / float64(total)
		}
		shares["cpu."+m] = v
	}
	return shares, total, nil
}

// moduleOf returns the fleetsim/internal package a function belongs to,
// or "" for any other function. Names look like
// "fleetsim/internal/heap.(*Heap).Alloc".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

type profSample struct {
	locs []uint64 // leaf first
	n    int64    // sample count (the profile's first value)
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

// pbuf walks a protobuf message.
type pbuf struct {
	b []byte
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next returns the next field: its number, wire type, the varint value
// (wire type 0) or the bytes (wire type 2). Fixed-width fields are
// skipped.
func (p *pbuf) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// varints reads a repeated varint field that may be packed (wire type 2)
// or not (wire type 0).
func varints(wire int, v uint64, data []byte, out []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(out, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	pr := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				f, w, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = varints(w, v, d, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(w, v, d, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			pr.samples = append(pr.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				f, _, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			pr.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				f, _, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			pr.funcName[id] = name
		case 6:
			pr.strings = append(pr.strings, string(data))
		}
	}
	return pr, nil
}
