package workload

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// RunMultiprogram executes one single-threaded profile per core, each in
// its OWN process, with all of them dynamically linked against the same
// shared library — the exact setting the paper's introduction motivates:
// independent programs whose common library pages are the exploitable
// (and, under SwiftDir, efficiently protected) shared memory. Library
// accesses are genuinely cross-process: every process maps the same
// mmu.File, so the physical frames coincide while heaps stay private.
// A done ctx aborts the simulation (see core.Config.Context).
func RunMultiprogram(ctx context.Context, profiles []Profile, protocol coherence.Policy, kind CPUKind) (Result, error) {
	if len(profiles) == 0 {
		return Result{}, fmt.Errorf("workload: no programs")
	}
	names := make([]string, 0, len(profiles))
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			return Result{}, err
		}
		if p.Threads != 1 {
			return Result{}, fmt.Errorf("workload: multiprogram profile %s must be single-threaded", p.Name)
		}
		names = append(names, p.Name)
	}
	name := "mix(" + strings.Join(names, "+") + ")"
	r, _, err := run(machineFor(ctx, len(profiles), protocol), name, kind, func(m *core.Machine) ([]cpu.CPU, error) {
		// One shared library for everyone (libc, in the paper's story).
		libc := mmu.NewFile("libc.so.6", 0x11BC)

		rng := sim.NewRNG(0xA11)
		cpus := make([]cpu.CPU, 0, len(profiles))
		for i, p := range profiles {
			proc := m.NewProcess()
			hw := proc.AttachContext(i)
			heap := proc.MmapAnon(p.WorkingSetKB * 1024)
			var shared mmu.VAddr
			if p.SharedKB > 0 {
				shared = proc.MmapLibrary(libc, p.SharedKB*1024)
			}
			gp := p
			gp.BarrierEvery = 0
			gen := newGenerator(gp, heap, shared, rng.Uint64())
			cpus = append(cpus, newCPU(kind, hw, gen, nil))
		}
		return cpus, nil
	})
	return r, err
}

// SPECRateMixes returns representative 4-program mixes in the style of
// multiprogrammed SPECrate studies: each mix stresses a different blend of
// library sharing and write-after-read intensity. The SharedKB/SharedFrac
// of the constituent profiles control how much libc traffic the mix
// generates.
func SPECRateMixes() map[string][]Profile {
	byName := func(names ...string) []Profile {
		var out []Profile
		for _, n := range names {
			p, ok := ProfileByName(n)
			if !ok {
				panic("unknown profile " + n)
			}
			out = append(out, p)
		}
		return out
	}
	return map[string][]Profile{
		"lib-heavy": sharedBoost(byName("perlbench", "gcc", "xalancbmk", "omnetpp"), 0.30, 2048),
		"war-heavy": byName("xz", "wrf", "bwaves", "xalancbmk"),
		"mem-bound": byName("mcf", "lbm", "fotonik3d", "roms"),
		"compute":   byName("leela", "exchange2", "namd", "imagick"),
		"mixed":     sharedBoost(byName("gcc", "mcf", "povray", "xz"), 0.15, 1024),
	}
}

// sharedBoost raises the library footprint and access share of each
// profile (multiprogrammed processes lean harder on common libraries than
// our single-process defaults assume).
func sharedBoost(ps []Profile, frac float64, sharedKB int) []Profile {
	out := make([]Profile, len(ps))
	for i, p := range ps {
		p.SharedFrac = frac
		p.SharedKB = sharedKB
		out[i] = p
	}
	return out
}
