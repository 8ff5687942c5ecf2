package expcache

import (
	"reflect"
	"strings"
	"testing"

	"hswsim/internal/exp"
)

// TestOptionsFlatForCacheKey is the cache-poison guard for the %#v key
// scheme. optionsKey renders exp.Options with %#v: for flat comparable
// fields (bools, numbers, strings, nested structs of the same) that is
// a deterministic canonical spelling, but a pointer, slice, map, chan,
// func or interface field would embed a heap address (or elide
// contents), making the key differ across processes for identical
// requests — every server cache lookup would miss, and worse, two
// *different* requests could collide once addresses recycle. If this
// test fails, do not weaken it: give the new field a flat
// representation (value struct, fixed array, scalar) or switch
// optionsKey to an explicit field-by-field encoding first.
func TestOptionsFlatForCacheKey(t *testing.T) {
	checkFlat(t, reflect.TypeOf(exp.Options{}), "exp.Options")
}

// checkFlat walks a struct type asserting every reachable field kind
// has a deterministic, address-free %#v rendering.
func checkFlat(t *testing.T, typ reflect.Type, path string) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return
	case reflect.Array:
		checkFlat(t, typ.Elem(), path+"[...]")
		return
	case reflect.Struct:
		if !typ.Comparable() {
			t.Errorf("%s (%v) is not comparable — %%#v keying is unsafe", path, typ)
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			checkFlat(t, f.Type, path+"."+f.Name)
		}
		return
	default:
		t.Errorf("%s has kind %v: a %v field in the cache-key struct would embed "+
			"addresses or hide contents under %%#v, silently poisoning cache keys "+
			"(see optionsKey). Use a flat value representation instead.",
			path, typ.Kind(), typ.Kind())
	}
}

// TestTupleKeyDistinguishesComponents pins that every tuple component
// separates coalescing keys — a collision here would let the server
// serve one experiment's bytes for another's request.
func TestTupleKeyDistinguishesComponents(t *testing.T) {
	base := exp.Options{Scale: 0.25, Seed: 0x5eed}
	k := TupleKey("tab3", base, false)
	for name, other := range map[string]string{
		"id":    TupleKey("tab4", base, false),
		"scale": TupleKey("tab3", exp.Options{Scale: 0.5, Seed: 0x5eed}, false),
		"seed":  TupleKey("tab3", exp.Options{Scale: 0.25, Seed: 1}, false),
		"csv":   TupleKey("tab3", base, true),
	} {
		if other == k {
			t.Errorf("TupleKey ignores %s: %q", name, k)
		}
	}
	if !strings.Contains(k, "tab3") {
		t.Errorf("TupleKey %q does not embed the experiment id", k)
	}
	// Only the fleet study reads the fleet options, so they separate
	// its keys.
	fleet := TupleKey("fleet", base, false)
	for name, o := range map[string]exp.FleetOptions{
		"fleet nodes": {Nodes: 64},
		"fleet seed":  {Seed: 7},
		"fleet sigma": {LeakSigma: -1},
	} {
		if other := TupleKey("fleet", exp.Options{Scale: 0.25, Seed: 0x5eed, Fleet: o}, false); other == fleet {
			t.Errorf("TupleKey ignores %s: %q", name, fleet)
		}
	}
}

// TestTupleKeySharedByEqualRenders: option sets that render the same
// bytes for an experiment share one key, so the CLI stores one entry
// and hswsimd runs one flight for them. Each pair spells the same
// request two ways: an option at the value its zero stands for, or an
// option the experiment does not read.
func TestTupleKeySharedByEqualRenders(t *testing.T) {
	for _, c := range []struct {
		name string
		id   string
		a, b exp.Options
	}{
		{"fleet seed 0 is the seed", "fleet",
			exp.Options{Scale: 0.05, Fleet: exp.FleetOptions{Seed: 0x5eed}}, exp.Options{Scale: 0.05}},
		{"fleet seed 0 follows -seed", "fleet",
			exp.Options{Scale: 0.05, Seed: 7, Fleet: exp.FleetOptions{Seed: 7}}, exp.Options{Scale: 0.05, Seed: 7}},
		{"fleet nodes 0 is the scale-derived cap", "fleet",
			exp.Options{Scale: 0.05, Fleet: exp.FleetOptions{Nodes: 204}}, exp.Options{Scale: 0.05}},
		{"fleet nodes 0 at the smallest cap", "fleet",
			exp.Options{Scale: 0.001, Fleet: exp.FleetOptions{Nodes: 16}}, exp.Options{Scale: 0.001}},
		{"tab3 reads no fleet options", "tab3",
			exp.Options{Scale: 0.05, Fleet: exp.FleetOptions{Nodes: 64, Seed: 9}}, exp.Options{Scale: 0.05}},
		{"scale 0 is full scale", "tab3",
			exp.Options{Scale: 1}, exp.Options{}},
		{"tab1 reads no options", "tab1",
			exp.Options{Scale: 0.1}, exp.Options{Scale: 0.2, Seed: 7}},
		{"fig1 reads no options", "fig1",
			exp.Options{Scale: 0.1, Fleet: exp.FleetOptions{Nodes: 64}}, exp.Options{Scale: 0.2}},
	} {
		if a, b := TupleKey(c.id, c.a, false), TupleKey(c.id, c.b, false); a != b {
			t.Errorf("%s: keys differ:\n%s\n%s", c.name, a, b)
		}
	}
}
