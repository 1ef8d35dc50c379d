//go:build !race

// Experiment-level allocation ceilings. The access hot path is pinned at
// zero allocations per access (internal/coherence, internal/sim); these
// pins bound what a whole experiment allocates around it: machine
// construction, per-job engines, cores, TLBs and the end-of-job invariant
// check. Excluded under -race because the race detector instruments
// allocations.

package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// TestExperimentAllocCeilings bounds the allocations of one Figure 7 run
// at scale 0.02 (the BenchmarkFig7_SPEC body) and one Figure 10(b) run
// (the BenchmarkFig10b_WAR_OoO body). Measured with go1.24.0 on linux/amd64:
// Fig7 allocated 964,979 times when every fetched O3 instruction escaped
// to the heap, each fresh engine grew its 1024 ring buckets one by one and
// every TLB miss allocated an entry, and 150,767 times once none of them
// did; Fig10b went from 1,554,806 to 18,226. Each ceiling sits at least 2x
// above the second count, so map and runtime differences across Go
// releases fit under it, and low enough that bringing back either the
// per-instruction O3 objects or the per-bucket engine growth alone trips
// both (Fig7 441,000 and 385,652; Fig10b 743,751 and 57,652). The TLB's
// per-miss entry is too rare here to show; internal/mmu pins it. Carving
// cache sets on first install and dropping the controllers' map size
// hints later moved the counts from 150,685 to 151,674 (Fig7) and from
// 18,127 to 18,172 (Fig10b); carving each set in its own allocation reads
// 231,043 and 28,369, outside that 2x margin, so the carve is chunked.
func TestExperimentAllocCeilings(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"Fig7/scale=0.02", 350_000, func() { experiments.Fig7(ctx, 0.02) }},
		{"Fig10b", 50_000, func() { experiments.Fig10(ctx, workload.DerivO3CPU, 1) }},
	} {
		allocs := testing.AllocsPerRun(1, c.run)
		t.Logf("%s: %.0f allocations (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// TestConstructionFootprint bounds the bytes a fresh machine allocates
// before its first access: the minimum TotalAlloc delta over three calls.
// Cache arrays carve a set's ways on its first install, so construction
// pays only the per-set slice headers. Measured with go1.24.0 on
// linux/amd64: NewSystem on the mesh256-sharing geometry allocated
// 16,289,352 bytes while every way of every set was built up front with
// 40-byte lines and map size hints, and 1,398,344 once sets were carved;
// the 1-core Table V NewMachine went from 1,738,488 to 71,736 bytes. Each
// ceiling sits at least 2x above the second count, so the map layouts of
// other Go releases fit under it, and far below the first.
func TestConstructionFootprint(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling uint64
		build   func()
	}{
		{"NewSystem/mesh256-sharing", 3 << 20, func() { coherence.MustNewSystem(mesh256Config()) }},
		{"NewMachine/1-core", 256 << 10, func() { core.MustNewMachine(core.DefaultConfig(1, coherence.SwiftDir)) }},
	} {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			least = min(least, allocatedBytes(c.build))
		}
		t.Logf("%s: %d bytes (ceiling %d)", c.name, least, c.ceiling)
		if least > c.ceiling {
			t.Errorf("%s allocates %d bytes, ceiling %d", c.name, least, c.ceiling)
		}
	}
}

// allocatedBytes is the heap bytes f allocates, live or not.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
