package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/workload"
)

// goldenCases is the experiment grid whose rendered reports are pinned
// byte-for-byte across substrate rewrites. The first 16 cases and their
// parameters mirror TestParallelReportsMatchSequential; their hashes in
// testdata/golden_reports were captured on the container/heap engine
// before the pooled rewrite, so a passing run proves the calendar queue
// and the free lists preserve the exact event interleaving (same seeds,
// one worker). The last three pin the reports that exercise interconnect
// features the 16 do not: socket distance (numa), port occupancy
// (fig6jitter) and mesh routing beside crossbar rows (scale); their
// hashes were captured on the separate crossbar model before it became
// the one-router mesh.
var goldenCases = []struct {
	name  string
	heavy bool // skipped under -short
	run   func(ctx context.Context) string
}{
	{"fig7", true, func(ctx context.Context) string { _, s := Fig7(ctx, 0.02); return s }},
	{"fig8", true, func(ctx context.Context) string { _, s := Fig8(ctx, 0.02); return s }},
	{"fig9", false, func(ctx context.Context) string { _, s := Fig9(ctx, []int{1000, 2000}); return s }},
	{"fig10a", false, func(ctx context.Context) string { _, s := Fig10(ctx, workload.TimingSimpleCPU, 1); return s }},
	{"fig10b", false, func(ctx context.Context) string { _, s := Fig10(ctx, workload.DerivO3CPU, 1); return s }},
	{"security", false, func(ctx context.Context) string { _, _, s := Security(ctx, 64, 64); return s }},
	{"multiprogram", true, func(ctx context.Context) string { _, s := Multiprogram(ctx, 0.02); return s }},
	{"sweep", false, func(ctx context.Context) string { return TimingSweep(ctx) }},
	{"lru", true, func(ctx context.Context) string { return AblationLRU(ctx, 0.05) }},
	{"ablation-ewp", false, func(ctx context.Context) string { return AblationEwp(ctx, 32) }},
	{"ablation-war", false, func(ctx context.Context) string { return AblationWAR(ctx, 1) }},
	{"traffic", false, func(ctx context.Context) string { return Traffic(ctx) }},
	{"msi", false, func(ctx context.Context) string { return MSIStudy(ctx, 32, 1) }},
	{"moesi", false, func(ctx context.Context) string { return MOESIStudy(ctx, 32, 1) }},
	{"snoop", false, func(ctx context.Context) string { return SnoopStudy(ctx, 32) }},
	{"kernels", false, func(ctx context.Context) string { return KernelStudy(ctx, 64) }},
	{"numa", false, func(context.Context) string { return NUMA() }},
	{"fig6jitter", false, func(ctx context.Context) string { return Fig6Jitter(ctx, 64).Rendered }},
	{"scale", false, func(ctx context.Context) string { return Scale(ctx) }},
}

const goldenPath = "testdata/golden_reports.json"

// TestGoldenReportEquivalence renders every experiment of the grid with a
// single worker and compares the SHA-256 of each report against the
// committed golden hash. Regenerate with SWIFTDIR_UPDATE_GOLDEN=1 (only
// legitimate when an experiment's *output format* intentionally changes —
// never to paper over an engine or protocol behaviour change).
func TestGoldenReportEquivalence(t *testing.T) {
	update := os.Getenv("SWIFTDIR_UPDATE_GOLDEN") != ""

	want := map[string]string{}
	if !update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read golden file (set SWIFTDIR_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}

	ctx := workersCtx(1)
	got := map[string]string{}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("suite runs are slow")
			}
			report := tc.run(ctx)
			if len(report) == 0 {
				t.Fatalf("%s: empty report", tc.name)
			}
			sum := sha256.Sum256([]byte(report))
			h := hex.EncodeToString(sum[:])
			got[tc.name] = h
			if update {
				return
			}
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("%s: no golden hash recorded", tc.name)
			}
			if h != w {
				t.Errorf("%s: report hash %s differs from golden %s\n--- report ---\n%s",
					tc.name, h, w, report)
			}
		})
	}

	if update {
		// Preserve hashes of cases skipped this run (e.g. -short).
		if raw, err := os.ReadFile(goldenPath); err == nil {
			old := map[string]string{}
			if json.Unmarshal(raw, &old) == nil {
				for k, v := range old {
					if _, ok := got[k]; !ok {
						got[k] = v
					}
				}
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
	}
}
