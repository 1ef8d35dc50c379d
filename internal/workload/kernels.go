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

// Kernel is a classic memory-system microbenchmark with a known
// performance signature, used to validate the substrates (MLP, DRAM row
// behaviour, TLB pressure, dependent-load latency) independently of the
// SPEC/PARSEC profiles.
type Kernel struct {
	Name string
	// trace generates the instruction stream over a working set of the
	// given size.
	trace func(heap mmu.VAddr, bytes int, rng *sim.RNG) []cpu.Instr
}

// Kernels returns the built-in suite.
func Kernels() []Kernel {
	return []Kernel{
		{
			// STREAM triad: a[i] = b[i] + s*c[i]. Sequential, massive
			// memory-level parallelism; bandwidth-bound.
			Name: "stream-triad",
			trace: func(heap mmu.VAddr, bytes int, rng *sim.RNG) []cpu.Instr {
				third := mmu.VAddr(bytes / 3 / 64 * 64)
				a, bb, c := heap, heap+third, heap+2*third
				n := int(third) / 8
				var tr []cpu.Instr
				for i := 0; i < n; i++ {
					off := mmu.VAddr(i * 8)
					tr = append(tr,
						cpu.Instr{Op: cpu.OpLoad, Addr: bb + off},
						cpu.Instr{Op: cpu.OpLoad, Addr: c + off},
						cpu.Instr{Op: cpu.OpFP, Dep1: 1, Dep2: 2}, // b[i] + s*c[i]
						cpu.Instr{Op: cpu.OpStore, Addr: a + off, Dep1: 1, Value: uint64(i)},
					)
				}
				return tr
			},
		},
		{
			// GUPS: random read-modify-write over the whole table. No
			// locality, heavy TLB and DRAM row-conflict pressure.
			Name: "gups",
			trace: func(heap mmu.VAddr, bytes int, rng *sim.RNG) []cpu.Instr {
				blocks := bytes / 64
				updates := blocks / 2
				var tr []cpu.Instr
				for i := 0; i < updates; i++ {
					addr := heap + mmu.VAddr(rng.Intn(blocks)*64)
					tr = append(tr,
						cpu.Instr{Op: cpu.OpLoad, Addr: addr},
						cpu.Instr{Op: cpu.OpInt, Dep1: 1}, // xor update
						cpu.Instr{Op: cpu.OpStore, Addr: addr, Dep1: 1, Value: uint64(i)},
					)
				}
				return tr
			},
		},
		{
			// Pointer chase: each load's address depends on the previous
			// load's value. Zero memory-level parallelism; pure latency.
			Name: "pointer-chase",
			trace: func(heap mmu.VAddr, bytes int, rng *sim.RNG) []cpu.Instr {
				blocks := bytes / 64
				hops := blocks / 2
				var tr []cpu.Instr
				for i := 0; i < hops; i++ {
					addr := heap + mmu.VAddr(rng.Intn(blocks)*64)
					// Dep1=1 chains every load to its predecessor.
					tr = append(tr, cpu.Instr{Op: cpu.OpLoad, Addr: addr, Dep1: 1})
				}
				return tr
			},
		},
	}
}

// KernelByName resolves a kernel.
func KernelByName(name string) (Kernel, bool) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// RunKernel executes a kernel single-threaded over a working set of
// `bytes` on the given protocol and CPU model. A done ctx aborts the
// simulation (see core.Config.Context).
func RunKernel(ctx context.Context, k Kernel, protocol coherence.Policy, kind CPUKind, bytes int) (Result, error) {
	if bytes < 4096 {
		return Result{}, fmt.Errorf("workload: kernel working set %d too small", bytes)
	}
	cfg := core.DefaultConfig(1, protocol)
	cfg.Context = ctx
	m, err := core.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	proc := m.NewProcess()
	heap := proc.MmapAnon(bytes)
	hw := proc.AttachContext(0)
	rng := sim.NewRNG(0x6E12)
	c := newCPU(kind, hw, &cpu.SliceTrace{Instrs: k.trace(heap, bytes, rng)}, nil)
	cycles := cpu.Run(m, []cpu.CPU{c})
	if err := m.CheckInvariants(); err != nil {
		return Result{}, err
	}
	res := Result{
		Benchmark:  k.Name,
		Protocol:   protocol.Name(),
		CPU:        kind,
		ExecCycles: cycles,
		Instrs:     c.Stats().Instructions,
		IPC:        c.Stats().IPC(),
		PerThread:  []cpu.Stats{c.Stats()},
	}
	return res, nil
}
