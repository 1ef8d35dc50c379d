//go:build !race

// Allocation-regression tests for whole simulation jobs. Excluded under
// -race because the race detector instruments allocations.

package workload

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
)

// TestO3JobAllocsIndependentOfLength pins an out-of-order job's
// allocations to its geometry: once the working set is resident, every
// further instruction runs through preallocated state (the ROB, its
// per-slot completion callbacks, the engine's slab, the TLB's slots), so
// quadrupling the instruction count adds (almost) no allocations. A heap
// object per fetched instruction shows up here as ~2 extra allocations
// per instruction.
func TestO3JobAllocsIndependentOfLength(t *testing.T) {
	war := Profile{
		Name: "war16k", Suite: "micro", Threads: 1,
		MemFrac: 0.4, StoreFrac: 0.5, WARFrac: 0.8, SeqFrac: 0.6,
		FPFrac: 0.2, DepFrac: 0.3, MissRate: 0.02,
		WorkingSetKB: 16, Seed: 15,
	}
	job := func(instrs int) float64 {
		p := war
		p.Instrs = instrs
		return testing.AllocsPerRun(1, func() {
			if _, _, err := RunDetailed(p, core.DefaultConfig(1, coherence.SwiftDir), DerivO3CPU); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 20_000, 80_000
	a, b := job(short), job(long)
	t.Logf("%.0f allocations at %d instructions, %.0f at %d", a, short, b, long)
	if perInstr := (b - a) / (long - short); perInstr > 0.001 {
		t.Fatalf("O3 job allocates %.0f at %d instructions and %.0f at %d: %.4f per extra instruction, want <= 0.001",
			a, short, b, long, perInstr)
	}
}
