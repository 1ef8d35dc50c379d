package experiments

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workload"
)

// TestParallelReportsMatchSequential is the determinism-equivalence
// suite for every experiment rewired onto the campaign pool: the
// rendered report with one worker must equal the report with four
// workers byte for byte. All simulation state is job-local and all RNG
// seeds are fixed, so any divergence means cross-job sharing snuck in.
func TestParallelReportsMatchSequential(t *testing.T) {
	cases := []struct {
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
		{"multiprogram", true, func() string { _, s := Multiprogram(0.02); return s }},
		{"sweep", false, TimingSweep},
		{"lru", true, func() string { return AblationLRU(0.05) }},
		{"ablation-ewp", false, func() string { return AblationEwp(32) }},
		{"ablation-war", false, func() string { return AblationWAR(1) }},
		{"traffic", false, Traffic},
		{"msi", false, func() string { return MSIStudy(32, 1) }},
		{"moesi", false, func() string { return MOESIStudy(32, 1) }},
		{"snoop", false, func() string { return SnoopStudy(32) }},
		{"kernels", false, func() string { return KernelStudy(64) }},
		{"scale", false, Scale},
		{"scale-attack", false, func() string { return ScaleAttack(64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("suite runs are slow")
			}
			defer campaign.SetWorkers(0)
			campaign.SetWorkers(1)
			seq := tc.run()
			campaign.SetWorkers(4)
			par := tc.run()
			if seq != par {
				t.Errorf("%s: report differs between 1 and 4 workers\n--- sequential ---\n%s\n--- parallel ---\n%s",
					tc.name, seq, par)
			}
			if len(seq) == 0 {
				t.Errorf("%s: empty report", tc.name)
			}
		})
	}
}
