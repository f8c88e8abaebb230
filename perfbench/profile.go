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

// layers are the buckets of the CPU profile, in report order.  Every
// sample lands in exactly one, so the shares sum to 1.
var layers = []string{
	"sim", "runtime_sched", "runtime_gc", "simnet", "mpi", "proto",
	"ckpt", "ftpm", "nas", "obs", "span", "other",
}

// pkgLayer maps a package under ftckpt/internal to its layer; packages
// not listed (trace, failure, platform, …) count as "other".
var pkgLayer = map[string]string{
	"sim":           "sim",
	"sim/placement": "sim",
	"simnet":        "simnet",
	"mpi":           "mpi",
	"core":          "proto",
	"core/pcl":      "proto",
	"core/vcl":      "proto",
	"core/mlog":     "proto",
	"ckpt":          "ckpt",
	"ftpm":          "ftpm",
	"nas":           "nas",
	"obs":           "obs",
	"span":          "span",
}

// Runtime entry points whose callees are garbage-collection work: the
// background mark workers, mutator assists, write-barrier flushes, the
// sweeper and scavenger.
var gcRoots = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.deductSweepCredit", "runtime.wbBufFlush",
	"runtime.(*mheap).reclaim", "runtime.markroot", "runtime.scanobject",
	"runtime.(*gcWork)",
}

// Runtime entry points whose callees are goroutine handoff: channel
// operations, parking and the scheduler loop.
var schedRoots = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.closechan", "runtime.gopark", "runtime.goparkunlock",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.goready", "runtime.ready", "runtime.mcall",
	"runtime.gosched", "runtime.goschedImpl", "runtime.goexit0",
	"runtime.newproc", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mstart", "runtime.sysmon",
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOfFunc returns the layer of a function under ftckpt/internal, "other"
// for the benchmark's own code, and "" for anything else (stdlib).
func layerOfFunc(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type args may hold paths
	}
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	rest, ok := strings.CutPrefix(fn, "ftckpt/internal/")
	if !ok {
		return ""
	}
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	if l, ok := pkgLayer[rest[:slash+1+dot]]; ok {
		return l
	}
	return "other"
}

// classify charges one stack, leaf first, to a layer.  The runtime
// frames at the leaf end decide first: garbage collection goes to
// runtime_gc, goroutine handoff to runtime_sched.  Any other leaf —
// allocation, memmove, map or stdlib code — is charged to the innermost
// ftckpt/internal frame, which is the layer that asked for the work.
func classify(stack []string) string {
	for _, fn := range stack {
		if !isRuntime(fn) {
			break
		}
		if hasAnyPrefix(fn, gcRoots) {
			return "runtime_gc"
		}
		if hasAnyPrefix(fn, schedRoots) {
			return "runtime_sched"
		}
	}
	for _, fn := range stack {
		if isRuntime(fn) {
			continue
		}
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	return "other"
}

// bucketProfile decodes a gzipped pprof CPU profile and adds each
// sample's count to its layer.
func bucketProfile(raw []byte, counts map[string]int64) error {
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		counts[classify(stack)] += s.values[0]
	}
	return nil
}

// profile is the part of a pprof profile the bucketer needs: samples
// with their location stacks (leaf first), and each location's function
// names (innermost inlined function first).
type profile struct {
	samples []sample
	locs    map[uint64][]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the gzipped protobuf encoding of
// github.com/google/pprof/proto/profile.proto, reading only samples,
// locations, functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location → function ids
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{samples: samples, locs: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			si, ok := funcNames[f]
			if !ok || si < 0 || si >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, f)
			}
			names = append(names, strs[si])
		}
		p.locs[id] = names
	}
	for _, s := range samples {
		for _, id := range s.locs {
			if _, ok := p.locs[id]; !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", id)
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf fields of b, calling fn with the varint
// value (wire type 0) or the payload (wire type 2); fixed-width fields
// are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints reads a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
