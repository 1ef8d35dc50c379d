package experiments

import (
	"context"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// workersCtx returns a context whose recorder sizes every campaign pool
// at n workers.
func workersCtx(n int) context.Context {
	return stats.WithRecorder(context.Background(), &stats.Recorder{Workers: n})
}

// TestParallelReportsMatchSequential is the determinism-equivalence
// suite for every experiment rewired onto the campaign pool: the
// rendered report with one worker must equal the report with four
// workers byte for byte. All simulation state is job-local and all RNG
// seeds are fixed, so any divergence means cross-job sharing snuck in.
func TestParallelReportsMatchSequential(t *testing.T) {
	cases := []struct {
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
		{"scale", false, func(ctx context.Context) string { return Scale(ctx) }},
		{"scale-attack", false, func(ctx context.Context) string { return ScaleAttack(ctx, 64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("suite runs are slow")
			}
			seq := tc.run(workersCtx(1))
			par := tc.run(workersCtx(4))
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
