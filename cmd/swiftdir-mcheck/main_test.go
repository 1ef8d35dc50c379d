package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI's verdicts: a complete clean search exits 0,
// a truncated search exits 1 (it proves nothing about the states it never
// reached), and a configuration that could only run a vacuous or broken
// search exits 2 before exploring.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // substring of stdout, or of stderr for exit 2
	}{
		{"complete", []string{"-policy", "MESI", "-depth", "1"}, 0, "MESI       OK"},
		{"truncated", []string{"-policy", "MESI", "-maxstates", "10"}, 1, "TRUNCATED"},
		{"no accesses", []string{"-policy", "MESI", "-outstanding", "-1"}, 2, "MaxOutstanding"},
		{"negative cap", []string{"-policy", "MESI", "-maxstates", "-1"}, 2, "MaxStates"},
		{"negative clusters", []string{"-policy", "MESI", "-clusters", "-1", "-depth", "1"}, 2, "Clusters"},
		{"unknown policy", []string{"-policy", "NOPE"}, 2, `unknown policy "NOPE"`},
		{"bad flag", []string{"-nosuchflag"}, 2, "nosuchflag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			got := stdout.String()
			if tc.code == 2 {
				got = stderr.String()
			}
			if !strings.Contains(got, tc.out) {
				t.Errorf("output lacks %q:\n%s", tc.out, got)
			}
		})
	}
}
