package experiments

import (
	"context"
	"sort"

	"repro/internal/campaign"
	"repro/internal/stats"
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

	var jobs []campaign.Job[float64]
	for _, name := range names {
		var progs []workload.Profile
		for _, p := range mixes[name] {
			progs = append(progs, p.Scale(scale))
		}
		for _, proto := range protocols {
			jobs = append(jobs, campaign.Job[float64]{
				Name: "multiprogram/" + name + "/" + proto.Name(),
				Run: func() (float64, error) {
					r, err := workload.RunMultiprogram(progs, proto, workload.DerivO3CPU)
					if err != nil {
						return 0, err
					}
					return float64(r.ExecCycles), nil
				},
			})
		}
	}
	metrics := campaign.MustCollect(ctx, 0, jobs)

	var rows []SuiteRow
	for i, name := range names {
		base := metrics[i*len(protocols)]
		rows = append(rows, SuiteRow{
			Benchmark: name,
			MESI:      100,
			SwiftDir:  stats.Normalize(metrics[i*len(protocols)+1], base),
			SMESI:     stats.Normalize(metrics[i*len(protocols)+2], base),
		})
	}
	return rows, renderSuite(
		"Multiprogrammed SPEC mixes (4 processes, shared libc) - normalized execution time (lower is better)",
		"execution time", rows)
}
