package workload

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// RunReadOnly executes the Figure 9 microbenchmark: a two-threaded
// application accessing `amount` exploitable shared (write-protected)
// cache lines. Thread 0 loads the whole region, both threads synchronize,
// then thread 1 re-accesses every line cross-core. Under MESI the
// re-access loads hit E-state blocks and take the three-hop path; under
// S-MESI and SwiftDir they are served from the LLC. A done ctx aborts the
// simulation (see core.Config.Context).
func RunReadOnly(ctx context.Context, amount int, protocol coherence.Policy, kind CPUKind) (Result, error) {
	if amount <= 0 {
		return Result{}, fmt.Errorf("workload: non-positive shared-data amount %d", amount)
	}
	cfg := core.DefaultConfig(2, protocol)
	cfg.Context = ctx
	m, err := core.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	proc := m.NewProcess()
	lib := mmu.NewFile("readonly.so", 0xF19)
	// Lines are spread one per 64B block; size up to the next page.
	bytes := (amount*64 + mmu.PageSize - 1) / mmu.PageSize * mmu.PageSize
	shared := proc.MmapLibrary(lib, bytes)

	loop := func() *cpu.SliceTrace {
		tr := &cpu.SliceTrace{}
		for i := 0; i < amount; i++ {
			tr.Instrs = append(tr.Instrs,
				cpu.Instr{Op: cpu.OpLoad, Addr: shared + mmu.VAddr(i*64)},
				cpu.Instr{Op: cpu.OpInt, Dep1: 1}, // consume the value
				cpu.Instr{Op: cpu.OpInt},          // loop counter
				cpu.Instr{Op: cpu.OpBranch, Dep1: 1},
			)
		}
		return tr
	}

	bar := cpu.NewBarrier(m.Engine(), 2)
	accessor := loop()
	accessor.Instrs = append(accessor.Instrs, cpu.Instr{Op: cpu.OpBarrier})
	reaccessor := &cpu.SliceTrace{Instrs: append([]cpu.Instr{{Op: cpu.OpBarrier}}, loop().Instrs...)}

	c0 := newCPU(kind, proc.AttachContext(0), accessor, bar)
	c1 := newCPU(kind, proc.AttachContext(1), reaccessor, bar)
	cycles := cpu.Run(m, []cpu.CPU{c0, c1})
	if err := m.CheckInvariants(); err != nil {
		return Result{}, err
	}
	return Result{
		Benchmark:  fmt.Sprintf("readonly-%d", amount),
		Protocol:   protocol.Name(),
		CPU:        kind,
		ExecCycles: cycles,
		Instrs:     cpu.TotalInstructions([]cpu.CPU{c0, c1}),
		PerThread:  []cpu.Stats{c0.Stats(), c1.Stats()},
	}, nil
}

// WARApp is one of the Figure 10 write-after-read intensive applications.
type WARApp struct {
	Name string
	// trace builds one measured pass over the array.
	trace func(heap mmu.VAddr, blocks int, rng *sim.RNG) []cpu.Instr
}

// WARApps returns the paper's three applications, generated at 8-byte
// element granularity (eight elements per 64-byte block). The array
// exceeds the L1 but fits the LLC, so every pass re-loads each block into
// state E from the LLC and the block's first store exercises the E->M
// transition — silently under MESI/SwiftDir, via an Upgrade round trip
// under S-MESI. The remaining intra-block accesses are the L1 hits that
// dilute the upgrade cost, exactly as in a real array traversal.
func WARApps() []WARApp {
	return []WARApp{
		{
			// a[i] = f(a[i]): independent load+store per element.
			Name: "array assignment",
			trace: func(heap mmu.VAddr, blocks int, rng *sim.RNG) []cpu.Instr {
				var tr []cpu.Instr
				for e := 0; e < blocks*8; e++ {
					addr := heap + mmu.VAddr(e*8)
					tr = append(tr,
						cpu.Instr{Op: cpu.OpLoad, Addr: addr},
						cpu.Instr{Op: cpu.OpStore, Addr: addr, Dep1: 1, Value: rng.Uint64()},
					)
				}
				return tr
			},
		},
		{
			// Shifting elements for an insertion: a[e] is read and the
			// value written one slot over; the chain through the shifted
			// value serializes across elements, so upgrade latency is
			// exposed even out of order.
			Name: "array insertion",
			trace: func(heap mmu.VAddr, blocks int, rng *sim.RNG) []cpu.Instr {
				var tr []cpu.Instr
				for e := 0; e < blocks*8; e++ {
					addr := heap + mmu.VAddr(e*8)
					tr = append(tr,
						// load depends on the previous store (the
						// immediately preceding instruction): the value
						// being shifted along the array.
						cpu.Instr{Op: cpu.OpLoad, Addr: addr, Dep1: 1},
						cpu.Instr{Op: cpu.OpInt, Dep1: 1}, // compare with key
						cpu.Instr{Op: cpu.OpStore, Addr: addr, Dep1: 1, Value: rng.Uint64()},
					)
				}
				return tr
			},
		},
		{
			// A compare-and-swap pass over neighbours: the most compute
			// per element, so the smallest (but still real) share of
			// time sits in upgrades.
			Name: "array sorting",
			trace: func(heap mmu.VAddr, blocks int, rng *sim.RNG) []cpu.Instr {
				var tr []cpu.Instr
				for e := 0; e < blocks*8-1; e++ {
					addr := heap + mmu.VAddr(e*8)
					tr = append(tr,
						cpu.Instr{Op: cpu.OpLoad, Addr: addr},
						cpu.Instr{Op: cpu.OpLoad, Addr: addr + 8},
						cpu.Instr{Op: cpu.OpInt, Dep1: 2, Dep2: 1}, // compare
						cpu.Instr{Op: cpu.OpBranch, Dep1: 1},
					)
					if rng.Bool(0.5) { // swap
						tr = append(tr,
							cpu.Instr{Op: cpu.OpStore, Addr: addr, Dep1: 2, Value: rng.Uint64()},
							cpu.Instr{Op: cpu.OpStore, Addr: addr + 8, Dep1: 3, Value: rng.Uint64()},
						)
					} else {
						tr = append(tr,
							cpu.Instr{Op: cpu.OpInt, Dep1: 2},
							cpu.Instr{Op: cpu.OpInt},
						)
					}
				}
				return tr
			},
		},
	}
}

// WARArrayKB is the array footprint of the Figure 10 applications: twice
// the L1 capacity, comfortably LLC-resident.
const WARArrayKB = 64

// RunWAR executes one Figure 10 application: a warm pass (cold misses)
// followed by `passes` measured passes, single-threaded. A done ctx
// aborts the simulation (see core.Config.Context).
func RunWAR(ctx context.Context, app WARApp, protocol coherence.Policy, kind CPUKind, passes int) (Result, error) {
	if passes <= 0 {
		return Result{}, fmt.Errorf("workload: non-positive pass count")
	}
	cfg := core.DefaultConfig(1, protocol)
	cfg.Context = ctx
	m, err := core.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	proc := m.NewProcess()
	heap := proc.MmapAnon(WARArrayKB * 1024)
	blocks := WARArrayKB * 1024 / 64
	rng := sim.NewRNG(0xA44)

	// Warm pass: demand paging + memory fetches, excluded from timing.
	warm := &cpu.SliceTrace{Instrs: app.trace(heap, blocks, rng)}
	hw := proc.AttachContext(0)
	cpu.Run(m, []cpu.CPU{newCPU(kind, hw, warm, nil)})

	var instrs []cpu.Instr
	for p := 0; p < passes; p++ {
		instrs = append(instrs, app.trace(heap, blocks, rng)...)
	}
	c := newCPU(kind, hw, &cpu.SliceTrace{Instrs: instrs}, nil)
	cycles := cpu.Run(m, []cpu.CPU{c})
	if err := m.CheckInvariants(); err != nil {
		return Result{}, err
	}
	return Result{
		Benchmark:  app.Name,
		Protocol:   protocol.Name(),
		CPU:        kind,
		ExecCycles: cycles,
		Instrs:     c.Stats().Instructions,
		IPC:        c.Stats().IPC(),
		PerThread:  []cpu.Stats{c.Stats()},
	}, nil
}
