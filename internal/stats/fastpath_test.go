package stats

import (
	"strings"
	"testing"
)

func TestFastPathSummary(t *testing.T) {
	s := FastPathSummary{Label: "fig7/MESI", Fast: 75, Slow: 25}
	if s.Total() != 100 || s.Fraction() != 0.75 {
		t.Fatalf("total %d fraction %v", s.Total(), s.Fraction())
	}
	f := s.Footer()
	for _, want := range []string{"[fastpath fig7/MESI]", "100 accesses", "75 fast (75.0%)", "25 slow"} {
		if !strings.Contains(f, want) {
			t.Errorf("footer %q missing %q", f, want)
		}
	}
	if (FastPathSummary{}).Fraction() != 0 {
		t.Error("empty summary fraction not 0")
	}
}

// The recorder keeps each run's split in completion order, and
// MergeFastPaths folds them into one footer line.
func TestFastPathRegistry(t *testing.T) {
	rec := &Recorder{}
	rec.RecordFastPath(FastPathSummary{Label: "a", Fast: 1})
	rec.RecordFastPath(FastPathSummary{Label: "b", Slow: 2})
	got := rec.FastPaths()
	if len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Fatalf("recorded %+v", got)
	}
	m := MergeFastPaths("all", got)
	if m.Fast != 1 || m.Slow != 2 || m.Label != "all" {
		t.Fatalf("merge %+v", m)
	}
	if TakeFastPaths() != nil {
		t.Fatal("TakeFastPaths shim returned splits")
	}
}
