package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer CPU ledger reads Go CPU profiles (the gzipped
// protobuf of runtime/pprof and /debug/pprof/profile) and charges each
// sample to one module of the repository. Only the fields the ledger
// needs are decoded: sample types, samples, locations, functions and
// the string table (profile.proto field numbers below).

const (
	pfSampleType  = 1
	pfSample      = 2
	pfLocation    = 4
	pfFunction    = 5
	pfStringTable = 6
)

// cpuSample is one decoded profile sample: its stack as function
// names, leaf first, and its CPU time in nanoseconds.
type cpuSample struct {
	Stack []string
	NS    int64
}

// decodeCPUProfile parses a gzipped (or raw) pprof CPU profile and
// returns its samples with the "cpu" value (the last value when no
// sample type is named "cpu").
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		typeNames []int64                 // string index of each sample type
		samples   []rawSample             // location ids and values
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := pbFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case pfSampleType:
			return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case pfSample:
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case pfLocation:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
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
		case pfFunction:
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case pfStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valIdx := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(s.vals), valIdx)
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{Stack: stack, NS: s.vals[valIdx]})
	}
	return out, nil
}

// pbFields walks the top-level fields of a protobuf message, calling
// fn with the varint value (wire type 0) or the bytes (wire type 2).
// Fixed-width fields are skipped; the profile format uses none the
// ledger reads.
func pbFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("protobuf: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("protobuf: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("protobuf: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("protobuf: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated varint field in either encoding:
// packed (one length-delimited run) or one value per field.
func pbRepeated(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			return errors.New("protobuf: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning the byte count
// (0 when b is truncated or the varint overflows).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pkgOf returns the import path of a Go symbol name such as
// "repro/internal/pbx.(*relay).forward" ("repro/internal/pbx").
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGC reports whether fn is garbage-collector work: background mark
// workers, mark assists charged to allocating goroutines, sweeping
// and scavenging.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// moduleOf charges a stack (leaf first) to one ledger bucket:
//
//   - "runtime_gc" when any frame is garbage-collector work;
//   - "syscall" when the leaf is a raw system call, where the profile
//     charges the kernel time the call spends;
//   - the repository module of the leaf ("pbx", "sip", "transport",
//     …; "repro" for the root package, "main" for a command);
//   - "runtime" for other runtime leaves: the scheduler, allocation,
//     memory moves;
//   - otherwise the leaf is in a general-purpose library (strings,
//     crypto/md5, net/http …), and the sample goes to the nearest
//     repository caller, or "other" when there is none.
func moduleOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	switch leaf := pkgOf(stack[0]); {
	case leaf == "syscall" || leaf == "internal/runtime/syscall" || leaf == "golang.org/x/sys/unix":
		return "syscall"
	case repoModule(leaf) != "":
		return repoModule(leaf)
	case leaf == "runtime" || strings.HasPrefix(leaf, "runtime/internal/") || strings.HasPrefix(leaf, "internal/runtime/"):
		return "runtime"
	}
	for _, fn := range stack[1:] {
		if m := repoModule(pkgOf(fn)); m != "" {
			return m
		}
	}
	return "other"
}

// repoModule maps an import path inside this repository (module
// "repro", plus the "main" package of a command) to its module name,
// or "" for a path outside it.
func repoModule(pkg string) string {
	switch {
	case pkg == "main" || pkg == "repro":
		return pkg
	case strings.HasPrefix(pkg, "repro/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	}
	return ""
}

// cpuByModule sums the CPU nanoseconds of samples per moduleOf bucket.
func cpuByModule(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[moduleOf(s.Stack)] += float64(s.NS)
	}
	return out
}
