package workload_test

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// Example runs a scaled-down SPEC CPU 2017 profile on the out-of-order
// core under MESI and SwiftDir. SwiftDir never perturbs the schedule of
// a benchmark that takes no write-after-read faults, so the cycle counts
// are bit-exact equal (Figure 7).
func Example() {
	prof, _ := workload.ProfileByName("mcf")
	prof = prof.Scale(0.02)

	base, err := workload.Run(context.Background(), prof, coherence.MESI, workload.DerivO3CPU)
	if err != nil {
		panic(err)
	}
	swift, err := workload.Run(context.Background(), prof, coherence.SwiftDir, workload.DerivO3CPU)
	if err != nil {
		panic(err)
	}
	fmt.Printf("same instruction count: %v\n", base.Instrs == swift.Instrs)
	fmt.Printf("same cycle count: %v\n", base.ExecCycles == swift.ExecCycles)
	// Output:
	// same instruction count: true
	// same cycle count: true
}

// ExampleRunKernel measures a pointer-chasing kernel whose working set
// exceeds the L1, exercising the full hierarchy down to DDR3 timing.
func ExampleRunKernel() {
	k, _ := workload.KernelByName("pointer-chase")
	res, err := workload.RunKernel(context.Background(), k, coherence.SwiftDir, workload.TimingSimpleCPU, 64<<10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ran %s: ipc below 0.2: %v\n", res.Benchmark, res.IPC < 0.2)
	// Output:
	// ran pointer-chase: ipc below 0.2: true
}
