package eprof

// Minimal pprof protobuf decoder — just enough for the CI gate to
// validate an emitted profile without external tools: decompress,
// decode, and reconstruct the folded stacks so tests can check sample
// counts, value sums, and round-trip equality against WriteFolded.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// ParsedProfile is the decoded subset of a pprof profile.
type ParsedProfile struct {
	SampleTypes []string // type names, in column order
	Samples     []ParsedSample
	DurationNS  int64
	DefaultType string
}

// ParsedSample is one decoded sample with its frames rendered
// root-first (reversing the wire's leaf-first location order) and its
// string-valued labels (nil when it has none).
type ParsedSample struct {
	Frames []string
	Values []int64
	Labels map[string]string
}

type protoReader struct {
	b   []byte
	pos int
}

func (r *protoReader) done() bool { return r.pos >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.b) {
			return 0, errors.New("eprof: truncated varint")
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, errors.New("eprof: varint overflow")
		}
	}
}

// field reads one key and returns (number, wire type, payload) where
// payload is the bytes for wire type 2 or the varint value for wire
// type 0. Other wire types are skipped structurally.
func (r *protoReader) field() (int, uint64, []byte, error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num, wire := int(key>>3), key&7
	switch wire {
	case 0:
		v, err := r.varint()
		return num, v, nil, err
	case 2:
		n, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		if uint64(len(r.b)-r.pos) < n {
			return 0, 0, nil, errors.New("eprof: truncated length-delimited field")
		}
		b := r.b[r.pos : r.pos+int(n)]
		r.pos += int(n)
		return num, 0, b, nil
	case 1:
		if len(r.b)-r.pos < 8 {
			return 0, 0, nil, errors.New("eprof: truncated fixed64")
		}
		r.pos += 8
		return num, 0, nil, nil
	case 5:
		if len(r.b)-r.pos < 4 {
			return 0, 0, nil, errors.New("eprof: truncated fixed32")
		}
		r.pos += 4
		return num, 0, nil, nil
	default:
		return 0, 0, nil, fmt.Errorf("eprof: unsupported wire type %d", wire)
	}
}

func packedVarints(b []byte) ([]uint64, error) {
	r := &protoReader{b: b}
	var out []uint64
	for !r.done() {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Parse decodes a (gzipped or raw) pprof protobuf stream.
func Parse(r io.Reader) (*ParsedProfile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("eprof: gzip: %w", err)
		}
		raw, err = io.ReadAll(gz)
		if err != nil {
			return nil, fmt.Errorf("eprof: gzip body: %w", err)
		}
		if err := gz.Close(); err != nil {
			return nil, err
		}
	}

	var strs []string
	type vt struct{ typ, unit uint64 }
	var sampleTypes []vt
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]uint64 // (key, str) string indices
	}
	var samples []rawSample
	locFunc := map[uint64]uint64{}  // location id -> function id
	funcName := map[uint64]uint64{} // function id -> name string index
	var durationNS int64
	var defaultTypeIdx uint64

	pr := &protoReader{b: raw}
	for !pr.done() {
		num, v, payload, err := pr.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			sr := &protoReader{b: payload}
			var cur vt
			for !sr.done() {
				n, val, _, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					cur.typ = val
				case 2:
					cur.unit = val
				}
			}
			sampleTypes = append(sampleTypes, cur)
		case 2: // sample
			sr := &protoReader{b: payload}
			var cur rawSample
			for !sr.done() {
				n, val, inner, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if inner != nil {
						vs, err := packedVarints(inner)
						if err != nil {
							return nil, err
						}
						cur.locs = append(cur.locs, vs...)
					} else {
						cur.locs = append(cur.locs, val)
					}
				case 2:
					if inner != nil {
						vs, err := packedVarints(inner)
						if err != nil {
							return nil, err
						}
						for _, u := range vs {
							cur.vals = append(cur.vals, int64(u))
						}
					} else {
						cur.vals = append(cur.vals, int64(val))
					}
				case 3: // label
					lr := &protoReader{b: inner}
					var kv [2]uint64
					for !lr.done() {
						ln, lv, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 || ln == 2 {
							kv[ln-1] = lv
						}
					}
					if kv[1] != 0 { // numeric labels carry no string
						cur.labels = append(cur.labels, kv)
					}
				}
			}
			samples = append(samples, cur)
		case 4: // location
			sr := &protoReader{b: payload}
			var id, fid uint64
			for !sr.done() {
				n, val, inner, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = val
				case 4: // line
					lr := &protoReader{b: inner}
					for !lr.done() {
						ln, lv, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fid = lv
						}
					}
				}
			}
			locFunc[id] = fid
		case 5: // function
			sr := &protoReader{b: payload}
			var id, name uint64
			for !sr.done() {
				n, val, _, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = val
				case 2:
					name = val
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		case 10:
			durationNS = int64(v)
		case 14:
			defaultTypeIdx = v
		}
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("eprof: string index %d out of range", i)
		}
		return strs[i], nil
	}

	out := &ParsedProfile{DurationNS: durationNS}
	for _, t := range sampleTypes {
		s, err := str(t.typ)
		if err != nil {
			return nil, err
		}
		out.SampleTypes = append(out.SampleTypes, s)
	}
	if out.DefaultType, err = str(defaultTypeIdx); err != nil {
		return nil, err
	}
	for _, s := range samples {
		ps := ParsedSample{Values: s.vals}
		// Wire order is leaf-first; render root-first.
		for i := len(s.locs) - 1; i >= 0; i-- {
			fid, ok := locFunc[s.locs[i]]
			if !ok {
				return nil, fmt.Errorf("eprof: sample references unknown location %d", s.locs[i])
			}
			name, err := str(funcName[fid])
			if err != nil {
				return nil, err
			}
			ps.Frames = append(ps.Frames, name)
		}
		for _, kv := range s.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			if ps.Labels == nil {
				ps.Labels = map[string]string{}
			}
			ps.Labels[k] = v
		}
		out.Samples = append(out.Samples, ps)
	}
	return out, nil
}
