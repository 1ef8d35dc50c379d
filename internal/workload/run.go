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

// CPUKind selects the execution model.
type CPUKind string

// The two CPU models of the evaluation.
const (
	TimingSimpleCPU CPUKind = "TimingSimpleCPU"
	DerivO3CPU      CPUKind = "DerivO3CPU"
)

func newCPU(kind CPUKind, ctx *core.Context, trace cpu.TraceSource, bar *cpu.Barrier) cpu.CPU {
	switch kind {
	case TimingSimpleCPU:
		return cpu.NewInOrder(ctx, trace, bar)
	case DerivO3CPU:
		return cpu.NewOutOfOrder(ctx, trace, bar)
	}
	panic(fmt.Sprintf("workload: unknown CPU kind %q", kind))
}

// Result summarizes one benchmark execution.
type Result struct {
	Benchmark  string
	Protocol   string
	CPU        CPUKind
	ExecCycles sim.Cycle
	Instrs     uint64
	IPC        float64
	PerThread  []cpu.Stats
}

// Run executes profile p on a fresh machine with the given protocol and
// CPU model and returns the measured result. Threads are pinned to cores
// 0..Threads-1 of a machine sized to the thread count (min 1 core,
// rounded up to a power of two), mirroring the paper's setup. A done
// ctx aborts the simulation (see core.Config.Context).
func Run(ctx context.Context, p Profile, protocol coherence.Policy, kind CPUKind) (Result, error) {
	cores := 1
	for cores < p.Threads {
		cores *= 2
	}
	cfg := core.DefaultConfig(cores, protocol)
	cfg.Context = ctx
	r, _, err := RunDetailed(p, cfg, kind)
	return r, err
}

// RunDetailed is Run with an explicit machine configuration; it also
// returns the quiesced machine so callers can inspect hierarchy
// statistics. The configuration must provide at least p.Threads cores.
func RunDetailed(p Profile, cfg core.Config, kind CPUKind) (Result, *core.Machine, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	if cfg.Cores < p.Threads {
		return Result{}, nil, fmt.Errorf("workload %s: %d threads need >= as many cores, have %d",
			p.Name, p.Threads, cfg.Cores)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	proc := m.NewProcess()

	var shared mmu.VAddr
	if p.SharedKB > 0 {
		lib := mmu.NewFile(p.Name+".so", p.Seed^0x5EED)
		shared = proc.MmapLibrary(lib, p.SharedKB*1024)
	}

	var bar *cpu.Barrier
	if p.Threads > 1 && p.BarrierEvery > 0 {
		bar = cpu.NewBarrier(m.Engine(), p.Threads)
	}

	cpus := make([]cpu.CPU, 0, p.Threads)
	rng := sim.NewRNG(p.Seed)
	for t := 0; t < p.Threads; t++ {
		ctx := proc.AttachContext(t)
		heap := proc.MmapAnon(p.WorkingSetKB * 1024)
		gp := p
		if bar == nil {
			gp.BarrierEvery = 0
		}
		gen := newGenerator(gp, heap, shared, rng.Uint64())
		cpus = append(cpus, newCPU(kind, ctx, gen, bar))
	}

	cycles := cpu.Run(m, cpus)
	if err := m.CheckInvariants(); err != nil {
		return Result{}, nil, fmt.Errorf("workload %s on %s: %w", p.Name, cfg.Protocol.Name(), err)
	}

	res := Result{
		Benchmark:  p.Name,
		Protocol:   cfg.Protocol.Name(),
		CPU:        kind,
		ExecCycles: cycles,
		Instrs:     cpu.TotalInstructions(cpus),
	}
	for _, c := range cpus {
		res.PerThread = append(res.PerThread, c.Stats())
	}
	if cycles > 0 {
		res.IPC = float64(res.Instrs) / float64(cycles) / float64(p.Threads)
	}
	return res, m, nil
}

// MustRun is Run for callers with static inputs.
func MustRun(p Profile, protocol coherence.Policy, kind CPUKind) Result {
	r, err := Run(context.Background(), p, protocol, kind)
	if err != nil {
		panic(err)
	}
	return r
}
