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

	"repro/internal/campaign"
	"repro/internal/workload"
)

// goldenCases is the 16-experiment grid whose rendered reports are pinned
// byte-for-byte across substrate rewrites. The cases and parameters mirror
// TestParallelReportsMatchSequential; the hashes in testdata/golden_reports
// were captured on the container/heap engine before the pooled rewrite, so
// a passing run proves the calendar queue and the free lists preserve the
// exact event interleaving (same seeds, one worker).
var goldenCases = []struct {
	name  string
	heavy bool // skipped under -short
	run   func() string
}{
	{"fig7", true, func() string { _, s := Fig7(context.Background(), 0.02); return s }},
	{"fig8", true, func() string { _, s := Fig8(context.Background(), 0.02); return s }},
	{"fig9", false, func() string { _, s := Fig9(context.Background(), []int{1000, 2000}); return s }},
	{"fig10a", false, func() string { _, s := Fig10(context.Background(), workload.TimingSimpleCPU, 1); return s }},
	{"fig10b", false, func() string { _, s := Fig10(context.Background(), workload.DerivO3CPU, 1); return s }},
	{"security", false, func() string { _, _, s := Security(context.Background(), 64, 64); return s }},
	{"multiprogram", true, func() string { _, s := Multiprogram(context.Background(), 0.02); return s }},
	{"sweep", false, func() string { return TimingSweep(context.Background()) }},
	{"lru", true, func() string { return AblationLRU(context.Background(), 0.05) }},
	{"ablation-ewp", false, func() string { return AblationEwp(context.Background(), 32) }},
	{"ablation-war", false, func() string { return AblationWAR(context.Background(), 1) }},
	{"traffic", false, func() string { return Traffic(context.Background()) }},
	{"msi", false, func() string { return MSIStudy(context.Background(), 32, 1) }},
	{"moesi", false, func() string { return MOESIStudy(context.Background(), 32, 1) }},
	{"snoop", false, func() string { return SnoopStudy(context.Background(), 32) }},
	{"kernels", false, func() string { return KernelStudy(context.Background(), 64) }},
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

	defer campaign.SetWorkers(0)
	campaign.SetWorkers(1)

	got := map[string]string{}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("suite runs are slow")
			}
			report := tc.run()
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
