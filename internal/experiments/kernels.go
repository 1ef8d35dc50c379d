package experiments

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/stats"
	"repro/internal/workload"
)

// KernelStudy runs the classic memory kernels (STREAM triad, GUPS,
// pointer chase) across the three paper protocols. Their known signatures
// validate the substrates — stream is bandwidth-bound (high IPC from
// memory-level parallelism), GUPS is TLB/DRAM-row bound, pointer chasing
// is pure serialized latency — and all three are protocol-insensitive
// single-core workloads, so the three columns also serve as a regression
// check that the defenses add no single-core overhead. The kernel×protocol
// grid runs as one campaign.
func KernelStudy(ctx context.Context, wsKB int) string {
	tb := stats.NewTable(
		"Memory kernels: IPC by protocol (single core, DerivO3CPU)",
		"kernel", "MESI", "SwiftDir", "S-MESI")
	kernels := workload.Kernels()
	var jobs []campaign.Job[float64]
	for _, k := range kernels {
		for _, p := range protocols {
			jobs = append(jobs, campaign.Job[float64]{
				Name: "kernels/" + k.Name + "/" + p.Name(),
				Run: func() (float64, error) {
					r, err := workload.RunKernel(k, p, workload.DerivO3CPU, wsKB<<10)
					if err != nil {
						return 0, err
					}
					return r.IPC, nil
				},
			})
		}
	}
	ipc := campaign.MustCollect(ctx, 0, jobs)
	for i, k := range kernels {
		tb.AddRowF(k.Name, ipc[i*len(protocols)], ipc[i*len(protocols)+1], ipc[i*len(protocols)+2])
	}
	return tb.Render()
}
