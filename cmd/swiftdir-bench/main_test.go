package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// report runs the CLI entry point with the given args, returning stdout.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// The headline guarantee of the campaign runner: the report stream is
// byte-identical no matter how many workers execute the grid.
func TestFig7ByteIdenticalAcrossWorkerCounts(t *testing.T) {
	seq := report(t, "-exp", "fig7", "-scale", "0.02", "-j", "1")
	par := report(t, "-exp", "fig7", "-scale", "0.02", "-j", "8")
	if seq != par {
		t.Fatalf("fig7 report differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Figure 7") || !strings.Contains(seq, "average") {
		t.Fatalf("fig7 report incomplete:\n%s", seq)
	}
}

// Same check on a second experiment family (attacks rather than suite
// runs) to cover the string-assembling campaign path.
func TestSecurityByteIdenticalAcrossWorkerCounts(t *testing.T) {
	seq := report(t, "-exp", "security", "-bits", "64", "-j", "1")
	par := report(t, "-exp", "security", "-bits", "64", "-j", "8")
	if seq != par {
		t.Fatalf("security report differs between -j 1 and -j 8")
	}
}

// Campaign accounting goes to stderr only: stdout must carry no
// wall-clock text, stderr must carry the footers, with the -j worker
// count reaching the campaign through the experiment's recorder.
func TestCampaignFooterOnStderrOnly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-exp", "sweep", "-j", "2"}, []string{"[campaign sweep]", "speedup"}},
		{[]string{"-exp", "kernels", "-j", "2"}, []string{"[campaign kernels]", "on 2 workers"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d", tc.args, code)
		}
		if strings.Contains(stdout.String(), "[campaign") {
			t.Fatalf("%v: footer leaked onto the report stream", tc.args)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%v: stderr missing %q: %q", tc.args, w, stderr.String())
			}
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment: code = %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", stderr.String())
	}
	// The rejection teaches the vocabulary: every registry name listed.
	for _, name := range experimentNames {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-experiment error omits %q", name)
		}
	}
	// One bad name poisons a whole comma list.
	stderr.Reset()
	if code := run([]string{"-exp", "table5,fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad name in list: code = %d", code)
	}
}

// -exp takes a comma-separated list, executed in report order and
// deduplicated, and the combined stream equals the single runs stitched
// together.
func TestCommaSeparatedExperimentList(t *testing.T) {
	// overhead precedes traffic in request order here, but the registry
	// (report) order is traffic then overhead; the duplicate collapses.
	combined := report(t, "-exp", "overhead,traffic,overhead")
	want := report(t, "-exp", "traffic") + report(t, "-exp", "overhead")
	if combined != want {
		t.Fatalf("comma list != stitched single runs:\n--- list ---\n%s\n--- stitched ---\n%s", combined, want)
	}
}

// The -exp flag help and the package doc comment's usage block must both
// list every experiment (the doc comment used to omit fig4, fig5, sweep,
// and friends).
func TestUsageListsAllExperiments(t *testing.T) {
	var help bytes.Buffer
	code := run([]string{"-h"}, io.Discard, &help)
	if code != 2 {
		t.Fatalf("-h: code = %d", code)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	for _, name := range experimentNames {
		if !strings.Contains(help.String(), name) {
			t.Errorf("flag help omits %q", name)
		}
		if !strings.Contains(doc, name) {
			t.Errorf("doc comment usage omits %q", name)
		}
	}
}

// Spot-check that accepted experiment names actually produce reports.
func TestExperimentNamesAccepted(t *testing.T) {
	for _, name := range []string{"table5", "overhead"} {
		out := report(t, "-exp", name)
		if len(out) == 0 {
			t.Errorf("%s produced empty report", name)
		}
	}
}

// A non-positive knob is a usage error only for the experiments that
// consume it, and nothing runs: the same rejection the server answers
// with 400.
func TestNonPositiveKnobIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table5,fig6", "-samples", "-5"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-samples -5 on fig6: exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "samples must be positive") {
		t.Errorf("stdout %q, stderr %q: want no report and the knob named", stdout.String(), stderr.String())
	}
	if out := report(t, "-exp", "table5", "-samples", "-5"); !strings.Contains(out, "Table V") {
		t.Errorf("table5 ignores -samples but was not run:\n%s", out)
	}
}
