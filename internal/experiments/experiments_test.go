package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestTable5(t *testing.T) {
	out := Table5()
	for _, want := range []string{"Table V", "4 core", "192", "DDR3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q", want)
		}
	}
}

// Table IV must match the paper exactly: MESI (no, yes), SwiftDir
// (yes, yes), S-MESI (yes, no).
func TestTable4MatchesPaper(t *testing.T) {
	rows, rendered := Table4()
	want := map[string][2]bool{
		"MESI":     {false, true},
		"SwiftDir": {true, true},
		"S-MESI":   {true, false},
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Protocol]
		if !ok {
			t.Fatalf("unexpected protocol %q", r.Protocol)
		}
		if r.ServeEFromLLC != w[0] || r.SilentUpgradeOnL1 != w[1] {
			t.Errorf("%s: (serveE=%v silent=%v), want (%v, %v)\n%s",
				r.Protocol, r.ServeEFromLLC, r.SilentUpgradeOnL1, w[0], w[1], rendered)
		}
	}
}

// Figure 6: SwiftDir's Load_WP and MESI's S-state load distributions both
// concentrate at the constant LLC latency (17 cycles under the calibrated
// timing); MESI's E-state path is strictly slower.
func TestFig6Shape(t *testing.T) {
	d := Fig6(context.Background(), 200)
	if d.LoadWP.Count() != 200 || d.LoadS.Count() != 200 || d.LoadE.Count() != 200 {
		t.Fatal("sample counts wrong")
	}
	if d.LoadWP.Min() != d.LoadWP.Max() || d.LoadWP.Min() != 17 {
		t.Fatalf("Load_WP not constant 17: [%d, %d]", d.LoadWP.Min(), d.LoadWP.Max())
	}
	if d.LoadS.Min() != 17 || d.LoadS.Max() != 17 {
		t.Fatalf("MESI Load(S) not 17: [%d, %d]", d.LoadS.Min(), d.LoadS.Max())
	}
	if d.LoadE.Min() <= d.LoadS.Max() {
		t.Fatalf("E-state path (%d) not slower than S (%d)", d.LoadE.Min(), d.LoadS.Max())
	}
	if !strings.Contains(d.Rendered, "Load_WP") {
		t.Error("rendered CDF missing series name")
	}
}

func TestSecurityReport(t *testing.T) {
	results, sides, rendered := Security(context.Background(), 64, 64)
	if len(results) != 3 || len(sides) != 3 {
		t.Fatalf("results %d sides %d", len(results), len(sides))
	}
	byName := map[string]bool{}
	for _, r := range results {
		byName[r.Protocol] = r.Leaked
	}
	if !byName["MESI"] || byName["SwiftDir"] || byName["S-MESI"] {
		t.Fatalf("leak matrix wrong: %+v", byName)
	}
	if !strings.Contains(rendered, "CHANNEL CLOSED") || !strings.Contains(rendered, "CHANNEL OPEN") {
		t.Error("rendered security report incomplete")
	}
}

// Figure 10 shape at small scale: SwiftDir == MESI (100), S-MESI > 100 for
// every app, amplified under the O3 model for the serialized app.
func TestFig10Shape(t *testing.T) {
	rowsA, renderedA := Fig10(context.Background(), workload.TimingSimpleCPU, 1)
	rowsB, _ := Fig10(context.Background(), workload.DerivO3CPU, 1)
	if len(rowsA) != 3 || len(rowsB) != 3 {
		t.Fatal("want 3 apps")
	}
	for _, r := range append(rowsA, rowsB...) {
		if r.SwiftDir < 99.5 || r.SwiftDir > 100.5 {
			t.Errorf("%s: SwiftDir %.2f, want ~100", r.Benchmark, r.SwiftDir)
		}
		if r.SMESI < 105 {
			t.Errorf("%s: S-MESI %.2f, want well above 100", r.Benchmark, r.SMESI)
		}
	}
	if !strings.Contains(renderedA, "array assignment") {
		t.Error("rendered Figure 10 missing app name")
	}
}

// Figure 9 shape at small scale: both defenses at or below MESI.
func TestFig9Shape(t *testing.T) {
	rows, rendered := Fig9(context.Background(), []int{1000, 2000})
	if len(rows) != 2 {
		t.Fatal("want 2 sweep points")
	}
	for _, r := range rows {
		if r.SwiftDir > 100 {
			t.Errorf("amount %s: SwiftDir %.2f > 100", r.Benchmark, r.SwiftDir)
		}
		if r.SMESI > 100 {
			t.Errorf("amount %s: S-MESI %.2f > 100", r.Benchmark, r.SMESI)
		}
	}
	if !strings.Contains(rendered, "amount of shared data") {
		t.Error("rendered Figure 9 missing title")
	}
}

// Figures 7 and 8 run end to end at tiny scale and produce averages near
// parity (SwiftDir within a few percent of MESI); the full-scale numbers
// are recorded by cmd/swiftdir-bench into EXPERIMENTS.md.
func TestFig7And8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow")
	}
	rows7, r7 := Fig7(context.Background(), 0.02)
	if len(rows7) != 23 || !strings.Contains(r7, "average") {
		t.Fatalf("Fig7: %d rows", len(rows7))
	}
	for _, r := range rows7 {
		if r.SwiftDir < 80 || r.SwiftDir > 120 {
			t.Errorf("Fig7 %s: SwiftDir %.2f implausible", r.Benchmark, r.SwiftDir)
		}
	}
	rows8, r8 := Fig8(context.Background(), 0.02)
	if len(rows8) != 13 || !strings.Contains(r8, "PARSEC") {
		t.Fatalf("Fig8: %d rows", len(rows8))
	}
}
