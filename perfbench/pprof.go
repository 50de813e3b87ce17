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

// Self time per package, from the traced run's CPU profile. Each sample is
// credited to the innermost frame that belongs to one of the simulation
// layers below; a sample with no such frame goes to "other" when some
// mittos frame is on its stack (experiments, metrics, blockio, ycsb), and to
// "runtime" when none is (GC workers, the scheduler). Allocation and GC
// assist work done on behalf of a layer is therefore that layer's.

// profileLayers are the reported buckets, in report order.
var profileLayers = []string{
	"sim", "cluster", "netsim", "kv", "core", "iosched", "disk", "ssd",
	"oscache", "noise", "stats", "runtime", "other",
}

const internalPrefix = "mittos/internal/"

// layerOf returns the simulation layer a function belongs to, or "".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range profileLayers[:len(profileLayers)-2] {
		if l == pkg {
			return l
		}
	}
	return ""
}

// creditStack picks the bucket for one sample's frames, innermost first.
func creditStack(frames []string) string {
	own := false
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "mittos") {
			own = true
		}
	}
	if own {
		return "other"
	}
	return "runtime"
}

// profileShares reads CPU profiles and returns each bucket's share of
// their pooled sampled CPU time, in percent.
func profileShares(paths []string) (map[string]float64, error) {
	total := make(map[string]float64, len(profileLayers))
	for _, path := range paths {
		p, err := readProfile(path)
		if err != nil {
			return nil, err
		}
		for k, v := range p.credit() {
			total[k] += v
		}
	}
	return percentages(total), nil
}

func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := parseProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// percentages turns per-bucket CPU time into shares of the total, with
// every bucket present.
func percentages(credit map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range credit {
		total += v
	}
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		out[l] = 0
		if total > 0 {
			out[l] = credit[l] / total * 100
		}
	}
	return out
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	strs      []string
	sampleTyp []int64             // string index of each value's type
	samples   []sample            // location ids innermost first, values
	locs      map[uint64][]uint64 // location id → function ids, innermost first
	funcs     map[uint64]int64    // function id → name string index
}

type sample struct {
	locs   []uint64
	values []int64
}

// frames resolves a sample's stack to function names, innermost first;
// inlined frames of one location come before the function they sit in.
func (p *profile) frames(s sample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locs[id] {
			if i := p.funcs[fid]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// credit sums each sample's CPU time (the "cpu" value, or the last value
// when no type is named so) into its bucket.
func (p *profile) credit() map[string]float64 {
	vi := -1
	for i, t := range p.sampleTyp {
		if int(t) < len(p.strs) && p.strs[t] == "cpu" {
			vi = i
		}
	}
	out := make(map[string]float64, len(profileLayers))
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		i := vi
		if i < 0 || i >= len(s.values) {
			i = len(s.values) - 1
		}
		out[creditStack(p.frames(s))] += float64(s.values[i])
	}
	return out
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

// parseProfile decodes a (gzipped or raw) profile.proto stream.
func parseProfile(r io.Reader) (*profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					p.sampleTyp = append(p.sampleTyp, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("truncated profile")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run of them (wire type 2).
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
