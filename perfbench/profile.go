package main

// CPU-profile decoding with no module dependency: runtime/pprof writes a
// gzipped profile.proto, which a minimal protobuf reader walks for the few
// messages attribution needs (samples, locations, functions, strings).

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a decoded profile that attribution reads.
type cpuProfile struct {
	// valueIdx is the index of the CPU-time value in each sample.
	valueIdx int
	samples  []profSample
	// locFuncs maps a location id to its function ids, innermost inlined
	// frame first.
	locFuncs map[uint64][]uint64
	funcName map[uint64]string
}

// profSample is one stack: location ids leaf first, and its values.
type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	var sampleTypes []uint64 // string index of each sample type's unit
	funcNameIdx := map[uint64]uint64{}
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.data, func(vt field) error {
				if vt.num == 2 {
					sampleTypes = append(sampleTypes, vt.val)
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := eachField(f.data, func(sf field) error {
				switch sf.num {
				case 1:
					return appendUints(sf, &s.locs)
				case 2:
					var vs []uint64
					if err := appendUints(sf, &vs); err != nil {
						return err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(lf field) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // line
					return eachField(lf.data, func(ln field) error {
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.data, func(ff field) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, ni := range funcNameIdx {
		p.funcName[id] = str(ni)
	}
	// The CPU-time value is the one measured in nanoseconds; a profile
	// without one is charged by sample count.
	p.valueIdx = 0
	for i, u := range sampleTypes {
		if str(u) == "nanoseconds" {
			p.valueIdx = i
		}
	}
	return p, nil
}

// field is one decoded protobuf field: a varint value (wire type 0) or a
// length-delimited payload (wire type 2).
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// appendUints appends a repeated integer field, packed or not, to dst.
func appendUints(f field, dst *[]uint64) error {
	if f.wire == 0 {
		*dst = append(*dst, f.val)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}

// eachField calls fn for every field of one message, skipping fixed-width
// fields, which none of the read messages use.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint, returning its length (0 if truncated).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Layers the CPU profile is split into. Every repository package maps to
// one; "runtime" takes samples with no repository frame and "other" the
// repository's helpers outside the DSM stack (free lists, span log, bench
// metadata, this benchmark itself).
var cpuLayers = []string{
	"sim", "madeleine", "pm2", "core", "protocols", "memory", "isomalloc",
	"app", "tune", "runtime", "other",
}

// layerOfPackage maps a package path to its layer, or "" for a package
// outside the repository (the Go runtime and standard library).
func layerOfPackage(pkg string) string {
	switch {
	case pkg == "dsmpm2":
		// The facade (System, Thread) is the DSM's public face.
		return "core"
	case strings.HasPrefix(pkg, "dsmpm2/internal/apps/"):
		return "app"
	case pkg == "main":
		return "other"
	case strings.HasPrefix(pkg, "dsmpm2/internal/"):
		name := strings.TrimPrefix(pkg, "dsmpm2/internal/")
		for _, l := range cpuLayers {
			if name == l {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "dsmpm2/"):
		return "other"
	}
	return ""
}

// packageOf extracts the package path from a symbol name such as
// "dsmpm2/internal/core.(*DSM).fault" or "dsmpm2/internal/sim.heap[...].push".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribute charges every sample's CPU time to the innermost repository
// package on its stack, so Go-runtime frames (allocation, scheduling, GC
// assists) count against the repository code that caused them; a stack
// with no repository frame is charged to "runtime". It returns CPU time per
// layer and the sample count.
func (p *cpuProfile) attribute() (map[string]int64, int) {
	out := make(map[string]int64, len(cpuLayers))
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			continue
		}
		out[p.layerOfStack(s.locs)] += s.values[p.valueIdx]
	}
	return out, len(p.samples)
}

// layerOfStack walks a stack leaf first, inlined frames innermost first.
func (p *cpuProfile) layerOfStack(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			if l := layerOfPackage(packageOf(p.funcName[fn])); l != "" {
				return l
			}
		}
	}
	return "runtime"
}
