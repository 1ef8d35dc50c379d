package experiments

import (
	"context"
	"sort"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// Multiprogram evaluates the protocols on multiprogrammed 4-core mixes:
// independent processes sharing only the common library — the setting the
// paper's introduction motivates for shared memory (dynamically linked
// libraries across programs). Normalized mix execution time over MESI,
// lower is better. Every mix×protocol run is an independent campaign job.
func Multiprogram(ctx context.Context, scale float64) ([]SuiteRow, string) {
	mixes := workload.SPECRateMixes()
	names := make([]string, 0, len(mixes))
	for n := range mixes {
		names = append(names, n)
	}
	sort.Strings(names)

	rows := suite(ctx, "multiprogram/", names, func(name string) string { return name },
		func(name string, proto coherence.Policy) (float64, error) {
			var progs []workload.Profile
			for _, p := range mixes[name] {
				progs = append(progs, p.Scale(scale))
			}
			r, err := workload.RunMultiprogram(ctx, progs, proto, workload.DerivO3CPU)
			return float64(r.ExecCycles), err
		})
	return rows, renderSuite(
		"Multiprogrammed SPEC mixes (4 processes, shared libc) - normalized execution time (lower is better)",
		"execution time", rows)
}
