package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlags: a flag outside the platform's range exits 2 with the usage
// text before anything runs, and a valid run reports the setting the
// p-state domain accepted and each socket's uncore clock.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr for code 2, in stdout for code 0
	}{
		{[]string{"-seconds", "-1"}, 2, "-seconds -1 outside"},
		{[]string{"-seconds", "0"}, 2, "-seconds 0 outside"},
		{[]string{"-seconds", "NaN"}, 2, "-seconds NaN outside"},
		{[]string{"-seconds", "Inf"}, 2, "-seconds +Inf outside"},
		{[]string{"-seconds", "1e10"}, 2, "-seconds 1e+10 outside"},
		{[]string{"-threads", "3"}, 2, "-threads 3 outside [1, 2]"},
		{[]string{"-threads", "0"}, 2, "-threads 0 outside [1, 2]"},
		{[]string{"-cores", "-5"}, 2, "-cores -5 outside [0, 12]"},
		{[]string{"-cores", "13"}, 2, "-cores 13 outside [0, 12]"},
		{[]string{"-freq", "100"}, 2, "-freq 100 below the lowest p-state, 1200 MHz"},
		{[]string{"-freq", "-5"}, 2, "-freq -5 below"},
		{[]string{"-workload", "bogus"}, 2, `unknown workload "bogus"`},
		{[]string{"-epb", "bogus"}, 2, `unknown epb "bogus"`},
		{[]string{"-governor", "bogus"}, 2, `unknown governor "bogus"`},
		{[]string{"-arch", "bogus"}, 2, `unknown arch "bogus"`},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-h"}, 0, ""},
		{[]string{"-workload", "compute", "-seconds", "0.05", "-threads", "1", "-cores", "2", "-freq", "1200"}, 0,
			`"compute" on 2 cores/socket x 1 threads, setting 1.20 GHz`},
		{[]string{"-workload", "compute", "-seconds", "0.05", "-freq", "9000"}, 0, "setting Turbo,"},
		{[]string{"-workload", "compute", "-seconds", "0.05", "-freq", "2500"}, 0, "setting 2.50 GHz,"},
		{[]string{"-workload", "compute", "-seconds", "0.05"}, 0, "socket 1: core 2.90 GHz, uncore "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		if code == 2 {
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) || !strings.Contains(stderr.String(), "Usage of hswsim") {
				t.Errorf("%v: stdout %q, stderr %q; want %q and the usage text on stderr only", tc.args, stdout.String(), stderr.String(), tc.want)
			}
		} else if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%v: stdout %q lacks %q", tc.args, stdout.String(), tc.want)
		}
	}
}
