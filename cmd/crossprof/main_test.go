package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the CLI through run: each row is one argv with its
// exit code and a substring its stdout or stderr must hold. An invalid
// row must print nothing on stdout, so no latency is ever priced for it.
func TestRun(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{args: []string{"-op", "ntt", "-batch", "0"}, code: 1, want: "invalid batch size 0"},
		{args: []string{"-op", "ntt", "-batch", "-3"}, code: 1, want: "invalid batch size -3"},
		{args: []string{"-cores", "0"}, code: 1, want: "invalid core count 0"},
		{args: []string{"-device", "TPUv9"}, code: 1, want: `unknown device "TPUv9"`},
		{args: []string{"-op", "divide"}, code: 1, want: `unknown operator "divide"`},
		{args: []string{"-bogus"}, code: 2, want: "flag provided but not defined"},
		{args: []string{"-op", "ntt", "-batch", "8"}, code: 0, want: "simulated latency:"},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", name, code, tc.code, stderr.String())
		}
		if out := stdout.String() + stderr.String(); !strings.Contains(out, tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", name, tc.want, out)
		}
		if tc.code != 0 && stdout.Len() != 0 {
			t.Errorf("%s: failed run printed on stdout:\n%s", name, stdout.String())
		}
	}
}
