package exp

import (
	"math"
	"strings"
	"testing"
)

// TestOptionsValidate covers every rejection of the shared options
// check, and the edges it must keep accepting.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Options)
		want string // "" = valid; otherwise a substring of the error
	}{
		{"defaults", func(o *Options) {}, ""},
		{"zero scale", func(o *Options) { o.Scale = 0 }, ""},
		{"full fleet", func(o *Options) { o.Fleet.Nodes = 4096 }, ""},
		{"sigmas at 1", func(o *Options) { o.Fleet = FleetOptions{LeakSigma: 1, CeffSigma: 1, VminSigmaV: 1} }, ""},
		{"negative sigmas disable", func(o *Options) { o.Fleet = FleetOptions{LeakSigma: -1, CeffSigma: -5, VminSigmaV: -0.5} }, ""},
		{"NaN scale", func(o *Options) { o.Scale = math.NaN() }, "scale"},
		{"infinite scale", func(o *Options) { o.Scale = math.Inf(1) }, "scale"},
		{"nodes above cap", func(o *Options) { o.Fleet.Nodes = 4097 }, "fleet nodes"},
		{"hostile nodes", func(o *Options) { o.Fleet.Nodes = 50_000_000 }, "fleet nodes"},
		{"negative nodes", func(o *Options) { o.Fleet.Nodes = -1 }, "fleet nodes"},
		{"leak sigma above 1", func(o *Options) { o.Fleet.LeakSigma = 1.5 }, "leak sigma"},
		{"ceff sigma above 1", func(o *Options) { o.Fleet.CeffSigma = 3 }, "ceff sigma"},
		{"vmin sigma above 1", func(o *Options) { o.Fleet.VminSigmaV = 2 }, "vmin sigma"},
		{"NaN leak sigma", func(o *Options) { o.Fleet.LeakSigma = math.NaN() }, "leak sigma"},
		{"infinite ceff sigma", func(o *Options) { o.Fleet.CeffSigma = math.Inf(1) }, "ceff sigma"},
		{"minus infinite vmin sigma", func(o *Options) { o.Fleet.VminSigmaV = math.Inf(-1) }, "vmin sigma"},
	} {
		o := Defaults()
		tc.mod(&o)
		err := o.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected valid options: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestRunLiveValidates: the serving entry point refuses invalid options
// before building a platform.
func TestRunLiveValidates(t *testing.T) {
	o := Quick()
	o.Fleet.Nodes = 1 << 20
	if _, err := RunLive("fleet", o, false); err == nil || !strings.Contains(err.Error(), "fleet nodes") {
		t.Fatalf("RunLive with %d fleet nodes: err %v, want a fleet nodes rejection", o.Fleet.Nodes, err)
	}
}
