// Package workload generates the synthetic benchmarks of the evaluation.
// SPEC CPU 2017 and PARSEC 3.0 cannot be shipped or executed inside the
// simulator, so each named benchmark is replaced by a deterministic,
// seeded trace generator whose parameters (memory intensity, store and
// write-after-read fractions, working-set and shared-library footprints,
// locality, thread count, synchronization density) are chosen to exercise
// the protocol behaviours the paper measures. Absolute IPCs are not
// comparable to gem5's; the protocol *comparison* is the reproduced
// quantity (see DESIGN.md).
package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name    string
	Suite   string // "SPEC2017", "PARSEC3", or "micro"
	Threads int
	Instrs  int // instructions per thread

	MemFrac    float64 // fraction of instructions that touch memory
	StoreFrac  float64 // of memory ops, fraction that are stores
	WARFrac    float64 // of stores, fraction emitted as load+store pairs
	SharedFrac float64 // of loads, fraction into the shared (write-protected) region
	SeqFrac    float64 // of private accesses, fraction continuing sequentially
	FPFrac     float64 // of non-memory ops, fraction floating point
	DepFrac    float64 // probability an instruction depends on its predecessor
	MissRate   float64 // of branches, fraction mispredicted

	WorkingSetKB int // private region per thread
	SharedKB     int // shared write-protected region (library)

	BarrierEvery int // instructions between barriers (0 = none)

	Seed uint64
}

// Validate checks the profile for sane fractions and sizes.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: unnamed profile")
	}
	if p.Threads <= 0 || p.Instrs <= 0 {
		return fmt.Errorf("workload %s: non-positive threads/instrs", p.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemFrac", p.MemFrac}, {"StoreFrac", p.StoreFrac}, {"WARFrac", p.WARFrac},
		{"SharedFrac", p.SharedFrac}, {"SeqFrac", p.SeqFrac}, {"FPFrac", p.FPFrac},
		{"DepFrac", p.DepFrac}, {"MissRate", p.MissRate},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %s: %s = %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.WorkingSetKB <= 0 {
		return fmt.Errorf("workload %s: non-positive working set", p.Name)
	}
	if p.SharedFrac > 0 && p.SharedKB <= 0 {
		return fmt.Errorf("workload %s: shared accesses without a shared region", p.Name)
	}
	return nil
}

// Scale returns a copy with the per-thread instruction count multiplied by
// f (min 1000); used to shrink runs for quick tests.
func (p Profile) Scale(f float64) Profile {
	n := int(float64(p.Instrs) * f)
	if n < 1000 {
		n = 1000
	}
	p.Instrs = n
	return p
}

// generator emits the instruction stream for one thread.
type generator struct {
	p   Profile
	rng *sim.RNG

	heapBase     mmu.VAddr
	heapBlocks   int
	sharedBase   mmu.VAddr
	sharedBlocks int

	cursor     int // sequential-walk position in the private region
	emitted    int
	pending    cpu.Instr // second half of a write-after-read pair
	hasPending bool
	lastValue  uint64
}

// newGenerator builds a thread's trace. The caller supplies mapped
// regions; seed should differ per thread.
func newGenerator(p Profile, heap, shared mmu.VAddr, seed uint64) *generator {
	return &generator{
		p:            p,
		rng:          sim.NewRNG(seed),
		heapBase:     heap,
		heapBlocks:   p.WorkingSetKB * 1024 / 64,
		sharedBase:   shared,
		sharedBlocks: p.SharedKB * 1024 / 64,
	}
}

var _ cpu.TraceSource = (*generator)(nil)

// NewTrace returns the instruction stream one thread of p executes: the
// generator RunDetailed drives each core with, over a private heap mapped
// at heap and p's shared region at shared.
func NewTrace(p Profile, heap, shared mmu.VAddr, seed uint64) cpu.TraceSource {
	return newGenerator(p, heap, shared, seed)
}

// privateAddr returns the next private-region address: a sequential walk
// with probability SeqFrac, a uniform jump otherwise.
func (g *generator) privateAddr() mmu.VAddr {
	if g.rng.Bool(g.p.SeqFrac) {
		g.cursor = (g.cursor + 1) % g.heapBlocks
	} else {
		g.cursor = g.rng.Intn(g.heapBlocks)
	}
	return g.heapBase + mmu.VAddr(g.cursor*64)
}

func (g *generator) sharedAddr() mmu.VAddr {
	return g.sharedBase + mmu.VAddr(g.rng.Intn(g.sharedBlocks)*64)
}

func (g *generator) dep() int {
	if g.rng.Bool(g.p.DepFrac) {
		return 1
	}
	return 0
}

// Next implements cpu.TraceSource.
func (g *generator) Next() (cpu.Instr, bool) {
	if g.hasPending {
		g.hasPending = false
		return g.pending, true
	}
	if g.emitted >= g.p.Instrs {
		return cpu.Instr{}, false
	}
	g.emitted++

	if g.p.BarrierEvery > 0 && g.emitted%g.p.BarrierEvery == 0 {
		return cpu.Instr{Op: cpu.OpBarrier}, true
	}

	if g.rng.Bool(g.p.MemFrac) {
		if g.rng.Bool(g.p.StoreFrac) {
			g.lastValue = g.rng.Uint64()
			addr := g.privateAddr()
			if g.rng.Bool(g.p.WARFrac) {
				// Write-after-read pair: the pattern whose E->M
				// upgrade cost separates the protocols.
				g.pending = cpu.Instr{Op: cpu.OpStore, Addr: addr, Value: g.lastValue, Dep1: 1}
				g.hasPending = true
				return cpu.Instr{Op: cpu.OpLoad, Addr: addr}, true
			}
			return cpu.Instr{Op: cpu.OpStore, Addr: addr, Value: g.lastValue, Dep1: g.dep()}, true
		}
		if g.p.SharedFrac > 0 && g.rng.Bool(g.p.SharedFrac) {
			return cpu.Instr{Op: cpu.OpLoad, Addr: g.sharedAddr(), Dep1: g.dep()}, true
		}
		return cpu.Instr{Op: cpu.OpLoad, Addr: g.privateAddr(), Dep1: g.dep()}, true
	}
	if g.rng.Bool(g.p.FPFrac) {
		return cpu.Instr{Op: cpu.OpFP, Dep1: g.dep()}, true
	}
	if g.rng.Bool(0.15) {
		return cpu.Instr{Op: cpu.OpBranch, Dep1: g.dep(), Mispredict: g.rng.Bool(g.p.MissRate)}, true
	}
	return cpu.Instr{Op: cpu.OpInt, Dep1: g.dep()}, true
}
