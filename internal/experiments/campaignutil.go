package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// covertJobs builds one campaign job per protocol running the E/S covert
// channel and returning its rendered report line — the loop shared by
// the security, ablation, MSI, and MOESI studies.
func covertJobs(protos []coherence.Policy, label string, bits int, seed uint64) []campaign.Job[string] {
	var jobs []campaign.Job[string]
	for _, p := range protos {
		jobs = append(jobs, campaign.Job[string]{
			Name: label + "/covert/" + p.Name(),
			Run: func() (string, error) {
				ch, err := attack.NewChannel(core.DefaultConfig(4, p), bits)
				if err != nil {
					return "", err
				}
				r, err := ch.Run(bits, seed)
				if err != nil {
					return "", err
				}
				return "  " + r.Describe() + "\n", nil
			},
		})
	}
	return jobs
}

// warMetrics fans the write-after-read app×protocol grid out over the
// campaign pool and returns exec-cycle metrics in grid order (apps
// outer, protocols inner).
func warMetrics(ctx context.Context, label string, apps []workload.WARApp, protos []coherence.Policy, kind workload.CPUKind, passes int) []float64 {
	var jobs []campaign.Job[float64]
	for _, app := range apps {
		for _, p := range protos {
			jobs = append(jobs, campaign.Job[float64]{
				Name: fmt.Sprintf("%s/war/%s/%s", label, app.Name, p.Name()),
				Run: func() (float64, error) {
					r, err := workload.RunWAR(ctx, app, p, kind, passes)
					if err != nil {
						return 0, err
					}
					return float64(r.ExecCycles), nil
				},
			})
		}
	}
	return campaign.MustCollect(ctx, 0, jobs)
}

// normalizedWARRow converts one app's slice of the warMetrics grid into
// table cells normalized against the first protocol (x100).
func normalizedWARRow(name string, metrics []float64) []any {
	row := []any{name, 100.0}
	for _, m := range metrics[1:] {
		row = append(row, stats.Normalize(m, metrics[0]))
	}
	return row
}
