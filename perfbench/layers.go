package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the host-time buckets of a traced run: the simulator's
// internal/* packages the benchmark tracks, then the Go runtime, then
// everything else (other internal packages, and stacks with no
// simulator frame at all).
var layers = []string{
	"timing", "cache", "memctrl", "core", "cpu", "trace", "pcm", "sim",
	"snapshot", "sampling", "engine", "experiments", "runtime", "other",
}

const modulePrefix = "rrmpcm/internal/"

// stack is one CPU-profile sample: its function names, leaf first, and
// its sample count.
type stack struct {
	funcs []string
	count int64
}

// layerOf assigns a sample to exactly one layer. A runtime leaf (GC,
// allocation, scheduling, map internals, memmove) is "runtime"; any
// other leaf — a simulator function, or a standard-library helper it
// called — goes to the innermost simulator package on the stack.
func layerOf(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	if isRuntime(pkgOf(funcs[0])) {
		return "runtime"
	}
	for _, f := range funcs {
		pkg := pkgOf(f)
		if !strings.HasPrefix(pkg, modulePrefix) {
			continue
		}
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// pkgOf returns the import path of a profile function name such as
// "rrmpcm/internal/timing.(*EventQueue).siftDown".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// foldShares folds samples into per-layer percentages of the total
// sample count. Every layer is present; the shares sum to 100 unless
// there are no samples, when all are 0.
func foldShares(samples []stack) map[string]float64 {
	counts := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		counts[layerOf(s.funcs)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// readProfile decodes the samples of a gzipped pprof CPU profile file.
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	samples, err := decodeProfile(blob)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return samples, nil
}

// decodeProfile reads the parts of a profile.proto message the fold
// needs: samples (location ids and the first value), locations (their
// line entries' function ids, innermost first) and functions (names in
// the string table).
func decodeProfile(blob []byte) ([]stack, error) {
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := eachField(blob, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachUint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(wire, v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(strs))
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v; length-delimited ones in b. Fixed-width fields are
// skipped (the profile fields the fold reads use neither).
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field in either encoding: one
// varint, or a packed run of them.
func eachUint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
