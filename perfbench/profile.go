package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed without the pprof tool: a minimal
// protobuf reader pulls each sample's stack of function names out of
// runtime/pprof's gzipped profile.proto output.

// stackSample is one profile sample: its function names, leaf first
// (inlined frames included), and how many times it was taken.
type stackSample struct {
	funcs []string
	count int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs     []string
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					return appendUints(&s.locs, v, b)
				case 2: // Sample.value
					return appendUints(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
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
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField calls fn for every field of one protobuf message: v holds
// a varint field's value, b a length-delimited field's bytes. Fixed-
// width fields are skipped; the profile schema uses none.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1: // fixed64
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5: // fixed32
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the encoder may
// write one varint at a time or packed into one length-delimited run.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// hotFunctions are the named functions whose inclusive share (samples
// with the function anywhere on the stack) is reported on their own:
// the targets ROADMAP items 2 and 3 name.
var hotFunctions = []struct {
	metric string
	match  func(fn string) bool
}{
	{"sim.heap_sink_pct", func(fn string) bool {
		return strings.HasPrefix(fn, "perfiso/internal/sim.(*Heap[") &&
			(strings.HasSuffix(fn, ").sink") || strings.HasSuffix(fn, ").up"))
	}},
	{"cpumodel.oldest_eligible_pct", func(fn string) bool {
		return fn == "perfiso/internal/cpumodel.(*Machine).oldestEligible"
	}},
	{"runtime.malloc_pct", func(fn string) bool { return fn == "runtime.mallocgc" }},
	{"runtime.gc_pct", func(fn string) bool {
		return fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" || fn == "runtime.bgsweep"
	}},
}

// tally accumulates CPU samples across profiles: self samples per
// layer (the leaf frame's package) and inclusive samples per hot
// function.
type tally struct {
	total int64
	self  map[string]int64
	hot   map[string]int64
}

func newTally() *tally {
	return &tally{self: map[string]int64{}, hot: map[string]int64{}}
}

func (t *tally) add(samples []stackSample) {
	for _, s := range samples {
		if len(s.funcs) == 0 {
			continue
		}
		t.total += s.count
		t.self[layerOf(s.funcs[0])] += s.count
		for _, h := range hotFunctions {
			for _, fn := range s.funcs {
				if h.match(fn) {
					t.hot[h.metric] += s.count
					break
				}
			}
		}
	}
}

// pct is n as a percentage of all samples.
func (t *tally) pct(n int64) float64 {
	if t.total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(t.total)
}

// layerOf maps a function name to its layer: the package name under
// perfiso/internal, "runtime", or "other".
func layerOf(fn string) string {
	const internal = "perfiso/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}
