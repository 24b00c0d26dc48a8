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

// cpuModules are the cpu_s.* buckets a CPU profile is folded into.
var cpuModules = []string{"sim", "workload", "iomgr", "cachemgr", "fsdrv", "tracedrv",
	"collect", "colstore", "analysis", "report", "cachesim", "query", "fleet",
	"flate", "net", "runtime", "bench", "other"}

// modulePrefixes map a function's package to its module. A package not
// listed (sort, container/list, crypto/sha256, encoding/json, ...) is a
// helper: its time goes to the nearest caller that is listed.
var modulePrefixes = []struct{ prefix, module string }{
	{"repro/internal/sim.", "sim"},
	{"repro/internal/workload.", "workload"},
	{"repro/internal/fsgen.", "workload"},
	{"repro/internal/dist.", "workload"},
	{"repro/internal/synth.", "workload"},
	{"repro/internal/ntos/iomgr.", "iomgr"},
	{"repro/internal/ntos/cachemgr.", "cachemgr"},
	{"repro/internal/ntos/", "fsdrv"}, // fsdrv, fsys, volume, filter, vmmgr, machine, irp
	{"repro/internal/tracedrv.", "tracedrv"},
	{"repro/internal/tracefmt.", "tracedrv"},
	{"repro/internal/collect.", "collect"},
	{"repro/internal/agent.", "collect"},
	{"repro/internal/colstore.", "colstore"},
	{"repro/internal/analysis.", "analysis"},
	{"repro/internal/stats.", "analysis"},
	{"repro/internal/snapshot.", "analysis"},
	{"repro/internal/report.", "report"},
	{"repro/internal/cachesim.", "cachesim"},
	{"repro/internal/query.", "query"},
	{"repro/internal/fleet.", "fleet"},
	{"repro/internal/core.", "fleet"},
	{"repro/internal/", "other"},
	{"compress/flate.", "flate"},
	{"net.", "net"},
	{"net/", "net"},
	{"internal/poll.", "net"},
	{"syscall.", "net"},
	{"runtime.", "runtime"},
	{"internal/runtime/", "runtime"},
	{"main.", "bench"},
	{"repro/perfbench.", "bench"}, // package main as a test binary names it
}

func moduleOf(fn string) (string, bool) {
	for _, p := range modulePrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.module, true
		}
	}
	return "", false
}

// foldCPUProfile reads a runtime/pprof CPU profile (gzipped profile.proto)
// and returns CPU seconds per module. Each sample is charged to the
// innermost frame, inlined frames included, whose package maps to a
// module; a sample with no such frame is "other".
func foldCPUProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    [][]int64
		nValTypes int
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nValTypes++
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, locs)
			values = append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	nameOf := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for i, locs := range samples {
		vals := values[i]
		if len(vals) == 0 {
			continue
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		ns := vals[len(vals)-1]
		if nValTypes < 2 {
			continue
		}
		mod := "other"
	frames:
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				if m, ok := moduleOf(nameOf(fid)); ok {
					mod = m
					break frames
				}
			}
		}
		out[mod] += float64(ns) / 1e9
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or bytes (wire 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
