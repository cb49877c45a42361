package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the modules host CPU time is attributed to, in report
// order. "runtime" is the Go runtime (GC, allocation, scheduler, sync);
// "other" is everything else (the root package, obs, recorder, pool,
// and the benchmark itself).
var Layers = []string{
	"sim", "cache", "conflict", "ring", "tlb", "bus", "divider", "programs",
	"trace", "auditor", "core", "stats", "stream", "fleet", "runtime", "other",
}

// layerOfPackage maps the module's packages to layers.
var layerOfPackage = map[string]string{
	"cchunter/internal/sim":      "sim",
	"cchunter/internal/cache":    "cache",
	"cchunter/internal/conflict": "conflict",
	"cchunter/internal/bloom":    "conflict",
	"cchunter/internal/ring":     "ring",
	"cchunter/internal/tlb":      "tlb",
	"cchunter/internal/bus":      "bus",
	"cchunter/internal/divider":  "divider",
	"cchunter/internal/channels": "programs",
	"cchunter/internal/workload": "programs",
	"cchunter/internal/trace":    "trace",
	"cchunter/internal/auditor":  "auditor",
	"cchunter/internal/core":     "core",
	"cchunter/internal/stats":    "stats",
	"cchunter/internal/stream":   "stream",
	"cchunter/internal/fleet":    "fleet",
}

// packageOf returns the package path of a symbol name such as
// "cchunter/internal/sim.(*System).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold '/'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer classifies one frame: a layer name, "runtime", or "" for a
// standard-library frame whose time belongs to its caller.
func frameLayer(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime"
	case pkg == "cchunter", strings.HasPrefix(pkg, "cchunter/"):
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "" // standard library: charge the caller
	}
	return "other"
}

// LayerSamples accumulates flat CPU samples per layer.
type LayerSamples map[string]int64

// Add attributes every sample of a gzipped pprof CPU profile to the
// layer of its leaf frame, walking up through standard-library frames.
// Samples carrying the benchmark's own profileLabel are skipped.
func (ls LayerSamples) Add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if p.labelled(s) {
			continue
		}
		layer := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := frameLayer(p.funcName(fn)); l != "" {
					layer = l
					break walk
				}
			}
		}
		ls[layer] += s.count
	}
	return nil
}

// Shares returns each layer's fraction of all samples (all zero when
// there are none).
func (ls LayerSamples) Shares() map[string]float64 {
	total := ls.Total()
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		if total > 0 {
			out[l] = float64(ls[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// Total is the sample count.
func (ls LayerSamples) Total() int64 {
	var total int64
	for _, n := range ls {
		total += n
	}
	return total
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]int64    // function id → name string index
	strings  []string
}

type sample struct {
	locs      []uint64 // leaf first
	count     int64
	labelKeys []int64 // string-table indices of the sample's label keys
}

func (p *profile) labelled(s sample) bool {
	for _, k := range s.labelKeys {
		if k >= 0 && int(k) < len(p.strings) && p.strings[k] == profileLabel {
			return true
		}
	}
	return false
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

// parseProfile decodes a gzipped profile.proto (the runtime/pprof CPU
// profile format) far enough to map samples to function names.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					values = appendVarints(values, wire, v, b)
				case 3: // Label
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
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
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
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
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
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
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
