package main

import (
	"bytes"
	"strings"
	"testing"

	"cross"
)

// TestRun drives the CLI through run: each row is one argv with its
// exit code and either an output substring (stdout or stderr) or the
// exact JSON stdout must hold.
func TestRun(t *testing.T) {
	ids := func() (any, error) { return cross.ExperimentIDs(), nil }
	serve := func() (any, error) { return cross.Serve(cross.ServeConfig{HorizonS: 0.02}) }
	cases := []struct {
		args []string
		code int
		want string
		json func() (any, error)
	}{
		{args: []string{"bogus"}, code: 2, want: "subcommands:"},
		{args: []string{"-sweep"}, code: 2, want: "subcommands:"},
		{args: []string{"sweep", "-rate", "5"}, code: 2, want: "flag provided but not defined"},
		{args: []string{"serve", "-fleet", "TPUv6e:1:2", "-device", "H100"}, code: 1, want: "mutually exclusive"},
		{args: []string{"serve", "-mtbf", "0.1"}, code: 2, want: "need -faults"},
		{args: []string{"hostbench", "-h"}, code: 0, want: "(default 0.25)"},
		{args: []string{"eval", "-list", "-json"}, code: 0, json: ids},
		{args: []string{"serve", "-horizon", "0.02", "-json"}, code: 0, json: serve},
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
		if tc.json == nil {
			continue
		}
		v, err := tc.json()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want bytes.Buffer
		if err := encodeJSON(&want, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
			t.Errorf("%s: stdout differs from the library's record:\n%s\nwant:\n%s", name, stdout.String(), want.String())
		}
	}
}
