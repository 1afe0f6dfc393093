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

// profilePackages are the packages whose CPU self time the traced run
// reports; every other frame is summed under "other".
var profilePackages = []string{
	"cpu", "isa", "cache", "tlb", "dram", "mem", "fifo", "monitor",
	"checkpoint", "recovery", "chip", "oslite", "device", "watchdog",
	"snapshot", "asm", "workload", "fleet", "serve", "cluster", "indra",
	"runtime", "other",
}

// chipRunFunc is the frame whose samples count as time inside chip.Run.
const chipRunFunc = "indra/internal/chip.(*Chip).Run"

// cpuProfile is a CPU profile folded the two ways the traced run
// reports it.
type cpuProfile struct {
	self       map[string]float64 // CPU seconds by the leaf frame's package
	outsideRun float64            // CPU seconds of samples with no chip.Run frame
}

// foldProfile decodes a CPU profile as written by runtime/pprof
// (gzipped profile.proto), sums each sample's CPU time onto the
// package of its leaf frame, and totals the samples taken outside
// chip.Run.
func foldProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU profile's sample types are [samples/count, cpu/nanoseconds].
	const cpuNS = 1
	out := &cpuProfile{self: make(map[string]float64, len(profilePackages))}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) <= cpuNS || len(p.frames[s.locs[0]]) == 0 {
			continue
		}
		cpu := float64(s.values[cpuNS]) / 1e9
		out.self[packageOf(p.name(p.frames[s.locs[0]][0]))] += cpu
		inRun := false
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				inRun = inRun || p.name(fn) == chipRunFunc
			}
		}
		if !inRun {
			out.outsideRun += cpu
		}
	}
	return out, nil
}

// packageOf maps a function name to its reported package: the
// internal package's last path element, "indra" for the root package,
// "runtime" for the Go runtime, and "other" for everything else.
func packageOf(name string) string {
	pkg := name
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		pkg = name[:slash+1+dot]
	}
	switch {
	case pkg == "indra":
		return "indra"
	case strings.HasPrefix(pkg, "indra/internal/"):
		sub := strings.TrimPrefix(pkg, "indra/internal/")
		sub, _, _ = strings.Cut(sub, "/")
		for _, known := range profilePackages {
			if sub == known {
				return sub
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

type profSample struct {
	locs   []uint64
	values []int64
}

type decodedProfile struct {
	samples []profSample
	frames  map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

// name returns a function's name ("" when the profile lacks it).
func (p *decodedProfile) name(fn uint64) string {
	i, ok := p.funcs[fn]
	if !ok || i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the profile.proto fields the folds need:
// samples, locations' (inlined) lines, function names and the string
// table.
func decodeProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{frames: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendUvarints(&s.locs, w, v, d)
				case 2:
					var vs []uint64
					if err := appendUvarints(&vs, w, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64 // lines are listed innermost inlined frame first
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.frames[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUvarints appends a repeated integer field in either encoding:
// one varint (wire type 0) or a packed run (wire type 2).
func appendUvarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
