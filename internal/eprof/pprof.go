package eprof

// Hand-rolled pprof protobuf encoding. The profile.proto schema is
// stable and tiny at the subset we need (sample types, samples,
// locations, functions, one synthetic mapping, string table), so the
// encoder is ~100 lines of varint plumbing rather than a dependency.
// Field numbers follow github.com/google/pprof/proto/profile.proto:
//
//	Profile:  1 sample_type, 2 sample, 3 mapping, 4 location,
//	          5 function, 6 string_table, 10 duration_nanos,
//	          14 default_sample_type
//	ValueType: 1 type, 2 unit            (string-table indices)
//	Sample:    1 location_id (packed), 2 value (packed)
//	Mapping:   1 id
//	Location:  1 id, 2 mapping_id, 4 line
//	Line:      1 function_id
//	Function:  1 id, 2 name, 4 filename  (string-table indices)
//
// time_nanos is deliberately omitted: profiles must be byte-identical
// across runs, so no wall-clock anything. Output is gzip-wrapped
// (deterministic: Go's gzip header has zero ModTime by default), which
// go tool pprof and Speedscope both accept.

import (
	"compress/gzip"
	"io"
)

type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag emits a field key: (field number << 3) | wire type.
func (p *protoBuf) tag(field int, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *protoBuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(uint64(v))
}

func (p *protoBuf) bytesField(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) stringField(field int, s string) {
	p.tag(field, 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packedField emits a packed repeated varint field.
func (p *protoBuf) packedField(field int, vals []uint64) {
	var inner protoBuf
	for _, v := range vals {
		inner.varint(v)
	}
	p.bytesField(field, inner.b)
}

// strTable interns strings into the profile string table ("" first, as
// the schema requires).
type strTable struct {
	list  []string
	index map[string]int64
}

func newStrTable() *strTable {
	return &strTable{list: []string{""}, index: map[string]int64{"": 0}}
}

func (t *strTable) id(s string) int64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := int64(len(t.list))
	t.list = append(t.list, s)
	t.index[s] = i
	return i
}

// Sample-type names for the two value columns; ?type= on the server
// and -sample_index in go tool pprof select between them.
const (
	SampleTypeEnergy = "energy_joules"
	SampleTypeVTime  = "vtime_ns"
)

// WritePprof encodes the profile as gzipped pprof protobuf with two
// value columns (energy_joules/nanojoules, vtime_ns/nanoseconds).
// defaultType selects default_sample_type: SampleTypeEnergy,
// SampleTypeVTime, or "" for energy.
func (p *Profile) WritePprof(w io.Writer, defaultType string) error {
	if defaultType == "" {
		defaultType = SampleTypeEnergy
	}
	st := newStrTable()
	var out protoBuf

	// sample_type
	for _, vt := range [][2]string{
		{SampleTypeEnergy, "nanojoules"},
		{SampleTypeVTime, "nanoseconds"},
	} {
		var m protoBuf
		m.int64Field(1, st.id(vt[0]))
		m.int64Field(2, st.id(vt[1]))
		out.bytesField(1, m.b)
	}

	// One location per distinct frame name; functions one-to-one.
	// Frames intern in first-appearance order (lines are sorted, so
	// this is deterministic).
	locID := map[string]uint64{}
	var locOrder []string
	for i := range p.Lines {
		for _, f := range p.Lines[i].Frames {
			if _, ok := locID[f]; !ok {
				locID[f] = uint64(len(locOrder) + 1)
				locOrder = append(locOrder, f)
			}
		}
	}

	// sample: location ids leaf-first.
	for i := range p.Lines {
		l := &p.Lines[i]
		ids := make([]uint64, len(l.Frames))
		for j, f := range l.Frames {
			ids[len(l.Frames)-1-j] = locID[f]
		}
		var m protoBuf
		m.packedField(1, ids)
		m.packedField(2, []uint64{uint64(l.EnergyNJ), uint64(l.VTimeNS)})
		out.bytesField(2, m.b)
	}

	// mapping: a single synthetic entry so tools that expect one are
	// happy.
	{
		var m protoBuf
		m.int64Field(1, 1)
		out.bytesField(3, m.b)
	}

	// location + function tables.
	for i, name := range locOrder {
		var line protoBuf
		line.int64Field(1, int64(i+1)) // function_id

		var loc protoBuf
		loc.int64Field(1, int64(i+1)) // id
		loc.int64Field(2, 1)          // mapping_id
		loc.bytesField(4, line.b)
		out.bytesField(4, loc.b)

		var fn protoBuf
		fn.int64Field(1, int64(i+1))      // id
		fn.int64Field(2, st.id(name))     // name
		fn.int64Field(4, st.id("hswsim")) // filename
		out.bytesField(5, fn.b)
	}

	// string table, duration, default sample type.
	defID := st.id(defaultType)
	for _, s := range st.list {
		out.stringField(6, s)
	}
	out.int64Field(10, p.DurationNS)
	out.int64Field(14, defID)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.b); err != nil {
		return err
	}
	return gz.Close()
}
