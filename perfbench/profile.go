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

// The CPU profile of a traced run is decoded here, without the pprof
// library, just far enough to attribute each sample's CPU time to the Go
// package of its leaf (innermost, after inlining) function. Self time is
// what matters: the simulator reaches most layers through event callbacks,
// so cumulative time would charge the event loop for everything.

// selfLayers are the simulator packages reported by name; any other
// package of the repository folds into internal_other.
var selfLayers = []string{
	"event", "mesh", "msg", "dir", "cache", "mem", "proc",
	"workload", "sig", "bitset", "stats", "trace",
	"core", "tcc", "seqpro", "bulksc", "kernel", "farm",
	"system", "chunk", "protocol", "metrics",
}

// shareGroups is every group a sample can land in. Their shares sum to 1.
var shareGroups = append(append([]string{}, selfLayers...),
	"scalablebulk", "perfbench", "internal_other", "runtime",
	"std.math_rand", "std.net_http", "std.encoding_json", "std.other", "other")

// funcPackage returns the import path of a symbol name as the profile
// spells it, e.g. "scalablebulk/internal/core" for
// "scalablebulk/internal/core.(*Protocol).onCommitRequest".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// packageGroup maps a function name to its share group.
func packageGroup(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "scalablebulk":
		return "scalablebulk"
	case pkg == "main" || pkg == "scalablebulk/perfbench":
		// The benchmark's own code: package main in its binary, its import
		// path under go test.
		return "perfbench"
	case strings.HasPrefix(pkg, "scalablebulk/"):
		if strings.HasPrefix(pkg, "scalablebulk/internal/") {
			last := pkg[strings.LastIndex(pkg, "/")+1:]
			for _, l := range selfLayers {
				if l == last {
					return l
				}
			}
		}
		return "internal_other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	case pkg == "math/rand":
		return "std.math_rand"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "std.net_http"
	case pkg == "encoding/json":
		return "std.encoding_json"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// The standard library's first path element has no dot.
		return "std.other"
	default:
		return "other"
	}
}

// profileShares decodes a gzipped pprof CPU profile and returns each share
// group's fraction of sampled CPU time, plus the total sampled nanoseconds.
func profileShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	fnName := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && int(f.name) < len(p.strings) {
			fnName[f.id] = p.strings[f.name]
		}
	}
	leafFn := map[uint64]uint64{}
	for _, l := range p.locations {
		if len(l.funcs) > 0 {
			leafFn[l.id] = l.funcs[0]
		}
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; weight by the
	// last value.
	byGroup := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		g := "other"
		if name, ok := fnName[leafFn[s.locs[0]]]; ok {
			g = packageGroup(name)
		}
		byGroup[g] += v
		total += v
	}
	out := make(map[string]float64, len(shareGroups))
	for _, g := range shareGroups {
		if total > 0 {
			out[g] = float64(byGroup[g]) / float64(total)
		} else {
			out[g] = 0
		}
	}
	return out, total, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofLocation struct {
	id    uint64
	funcs []uint64 // function ids of the location's lines, innermost first
}

type pprofFunction struct {
	id   uint64
	name int64
}

type pprofProfile struct {
	samples   []pprofSample
	locations []pprofLocation
	functions []pprofFunction
	strings   []string
}

// Field numbers of profile.proto used here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s pprofSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendUvarints(&s.locs, wire, v, data)
				case fSampleValue:
					var us []uint64
					if err := appendUvarints(&us, wire, v, data); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var l pprofLocation
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					l.id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case fProfileFunction:
			var f pprofFunction
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					f.id = v
				case fFunctionName:
					f.name = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, f)
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendUvarints appends a repeated integer field, which the encoder writes
// either packed (wire type 2) or one value per field (wire type 0).
func appendUvarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadVarint
		}
		*dst = append(*dst, u)
		data = data[n:]
	}
	return nil
}

var errBadVarint = errors.New("malformed varint")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return io.ErrUnexpectedEOF
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return io.ErrUnexpectedEOF
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return io.ErrUnexpectedEOF
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
