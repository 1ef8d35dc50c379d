package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestMOESIStudyShape(t *testing.T) {
	out := MOESIStudy(context.Background(), 64, 1)
	if strings.Count(out, "CHANNEL CLOSED") != 3 {
		t.Fatalf("want MOESI open + 3 closed:\n%s", out)
	}
	if !strings.Contains(out, "MOESI     bits=64 errors=0") {
		t.Fatalf("MOESI baseline should leak:\n%s", out)
	}
	for _, want := range []string{"SwiftDir-MOESI", "SwiftDir-MESIF", "array assignment"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSnoopStudyShape(t *testing.T) {
	out := SnoopStudy(context.Background(), 64)
	if !strings.Contains(out, "OPEN (inverted: E faster than S)") {
		t.Fatalf("MESI-snoop channel not open:\n%s", out)
	}
	if !strings.Contains(out, "SwiftDir-snoop") || strings.Count(out, "CLOSED") < 2 {
		t.Fatalf("SwiftDir-snoop not closed:\n%s", out)
	}
}

func TestFutureWorkShape(t *testing.T) {
	out := FutureWork(context.Background(), 64)
	if !strings.Contains(out, "VULNERABLE") || !strings.Contains(out, "DEFENDED") {
		t.Fatalf("future-work study incomplete:\n%s", out)
	}
	if !strings.Contains(out, "FastCoW write buffer") {
		t.Fatal("missing FastCoW row")
	}
}

func TestMultiprogramShape(t *testing.T) {
	rows, out := Multiprogram(context.Background(), 0.02)
	if len(rows) != 5 {
		t.Fatalf("mixes = %d", len(rows))
	}
	for _, r := range rows {
		if r.SwiftDir < 95 || r.SwiftDir > 105 {
			t.Errorf("%s: SwiftDir %.2f implausible", r.Benchmark, r.SwiftDir)
		}
	}
	if !strings.Contains(out, "lib-heavy") {
		t.Fatal("missing mix name")
	}
}

func TestPrefetchStudyShape(t *testing.T) {
	out := Prefetch(64)
	lines := strings.Split(out, "\n")
	var naive, aware string
	for _, l := range lines {
		if strings.HasPrefix(l, "naive") {
			naive = l
		}
		if strings.HasPrefix(l, "wp-aware") {
			aware = l
		}
	}
	if !strings.Contains(naive, "OPEN") || !strings.Contains(naive, "E") {
		t.Fatalf("naive prefetch row wrong: %q", naive)
	}
	if !strings.Contains(aware, "CLOSED") {
		t.Fatalf("wp-aware row wrong: %q", aware)
	}
}

func TestAblationLRUShape(t *testing.T) {
	out := AblationLRU(context.Background(), 0.05)
	for _, want := range []string{"mcf", "Random LLC", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig6JitterSpread(t *testing.T) {
	d := Fig6Jitter(context.Background(), 100)
	if d.LoadWP.Count() != 100 {
		t.Fatal("sample count")
	}
	if d.LoadE.Mean() <= d.LoadWP.Mean()+20 {
		t.Fatalf("E path (%.1f) not well above WP (%.1f)", d.LoadE.Mean(), d.LoadWP.Mean())
	}
}

func TestNUMAStudyShape(t *testing.T) {
	out := NUMA()
	if !strings.Contains(out, "YES") {
		t.Fatalf("MESI should leak the socket:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "SwiftDir ") && !strings.Contains(l, "no") {
			t.Fatalf("SwiftDir leaks the socket: %q", l)
		}
	}
}

func TestKernelStudyShape(t *testing.T) {
	out := KernelStudy(context.Background(), 128)
	for _, want := range []string{"stream-triad", "gups", "pointer-chase"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
