package experiments

import (
	"context"

	"repro/internal/coherence"
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
	ipc := grid(ctx, "kernels/", kernels, func(k workload.Kernel) string { return k.Name }, protocols,
		func(k workload.Kernel, p coherence.Policy) (float64, error) {
			r, err := workload.RunKernel(ctx, k, p, workload.DerivO3CPU, wsKB<<10)
			return r.IPC, err
		})
	for i, k := range kernels {
		tb.AddRowF(k.Name, ipc[i][0], ipc[i][1], ipc[i][2])
	}
	return tb.Render()
}
