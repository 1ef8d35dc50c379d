package workload

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
)

// recordSharedBase is the virtual base Record places the shared
// (write-protected) region at; everything below it is per-thread private
// heap.
const recordSharedBase = mmu.VAddr(0x7000_0000_0000)

// Replay executes a recorded trace (one instruction stream per thread) on
// a fresh machine under the given protocol and CPU model. The recorded
// address-space layout is reconstructed with fixed mappings: private
// anonymous regions for each thread's heap addresses, and a shared-library
// mapping (write-protected) for the shared region.
func Replay(threads [][]cpu.Instr, protocol coherence.Policy, kind CPUKind) (Result, error) {
	if len(threads) == 0 {
		return Result{}, fmt.Errorf("workload: empty trace")
	}
	cores := 1
	for cores < len(threads) {
		cores *= 2
	}
	m, err := core.NewMachine(core.DefaultConfig(cores, protocol))
	if err != nil {
		return Result{}, err
	}
	proc := m.NewProcess()

	// Reconstruct the layout: one fixed anonymous region per contiguous
	// private range, one fixed library mapping over the shared range.
	type rng struct{ lo, hi mmu.VAddr }
	var shared *rng
	private := map[mmu.VAddr]*rng{} // keyed by bits 32+ of the address
	for _, instrs := range threads {
		for _, ins := range instrs {
			if !ins.Op.IsMem() {
				continue
			}
			if ins.Addr >= recordSharedBase {
				if shared == nil {
					shared = &rng{lo: ins.Addr, hi: ins.Addr}
				}
				if ins.Addr < shared.lo {
					shared.lo = ins.Addr
				}
				if ins.Addr > shared.hi {
					shared.hi = ins.Addr
				}
				continue
			}
			key := ins.Addr >> 32
			r := private[key]
			if r == nil {
				private[key] = &rng{lo: ins.Addr, hi: ins.Addr}
				continue
			}
			if ins.Addr < r.lo {
				r.lo = ins.Addr
			}
			if ins.Addr > r.hi {
				r.hi = ins.Addr
			}
		}
	}
	pageFloor := func(v mmu.VAddr) mmu.VAddr { return v &^ (mmu.PageSize - 1) }
	for _, r := range private {
		base := pageFloor(r.lo)
		length := int(r.hi-base) + mmu.PageSize
		if err := proc.AS.MmapFixed(base, length,
			mmu.ProtRead|mmu.ProtWrite, mmu.MapPrivate|mmu.MapAnonymous, nil, 0); err != nil {
			return Result{}, err
		}
	}
	if shared != nil {
		base := pageFloor(shared.lo)
		length := int(shared.hi-base) + mmu.PageSize
		lib := mmu.NewFile("replay.so", 0x4E71A)
		if err := proc.AS.MmapFixed(base, length,
			mmu.ProtRead|mmu.ProtExec, mmu.MapShared, lib, 0); err != nil {
			return Result{}, err
		}
	}

	var bar *cpu.Barrier
	for _, instrs := range threads {
		for _, ins := range instrs {
			if ins.Op == cpu.OpBarrier {
				bar = cpu.NewBarrier(m.Engine(), len(threads))
			}
		}
		if bar != nil {
			break
		}
	}

	cpus := make([]cpu.CPU, 0, len(threads))
	for t, instrs := range threads {
		ctx := proc.AttachContext(t)
		cpus = append(cpus, newCPU(kind, ctx, &cpu.SliceTrace{Instrs: instrs}, bar))
	}
	cycles := cpu.Run(m, cpus)
	if err := m.CheckInvariants(); err != nil {
		return Result{}, err
	}
	res := Result{
		Benchmark:  "replay",
		Protocol:   protocol.Name(),
		CPU:        kind,
		ExecCycles: cycles,
		Instrs:     cpu.TotalInstructions(cpus),
	}
	for _, c := range cpus {
		res.PerThread = append(res.PerThread, c.Stats())
	}
	if cycles > 0 {
		res.IPC = float64(res.Instrs) / float64(cycles) / float64(len(threads))
	}
	return res, nil
}
