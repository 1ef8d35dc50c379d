package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/workload"
)

// The simulation workloads' inputs are pure functions of the seed: the
// same seed builds byte-identical job lists, so a repeated job must
// reproduce its first outcome exactly, and seed 1's outcomes are pinned in
// testdata/expected_seed1.json.

// newRNG returns the deterministic generator one input family draws from;
// stream separates the families so adding one never shifts another.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// specProfiles are the 23 SPEC 2017 stand-ins at the CLI's default scale
// (0.25, i.e. 50k instructions), re-seeded from seed.
func specProfiles(seed uint64) []workload.Profile {
	rng := newRNG(seed, 0x5bec)
	profiles := workload.SPEC2017()
	for i, p := range profiles {
		profiles[i] = p.Scale(0.25)
		profiles[i].Seed = rng.Uint64()
	}
	return profiles
}

// specJobs is the Fig. 7 job shape: each SPEC profile on DerivO3CPU under
// the paper's three policies on the 1-core crossbar machine.
func specJobs(seed uint64) []simJob {
	var jobs []simJob
	for _, p := range specProfiles(seed) {
		for _, pol := range coherence.Policies {
			jobs = append(jobs, machineJob(p, pol, workload.DerivO3CPU))
		}
	}
	return jobs
}

// warProfiles draws the 12 L1-resident, write-after-read-heavy profiles
// of war-inorder. Each parameter is stratified over its range (one draw
// per twelfth, in a seeded order), so every seed covers the whole range
// and seeds differ only in where inside each stratum a profile lands.
func warProfiles(seed uint64) []workload.Profile {
	const n = 12
	rng := newRNG(seed, 0x3a7)
	strat := func(lo, hi float64) []float64 {
		out := make([]float64, n)
		for i, s := range rng.Perm(n) {
			out[i] = lo + (hi-lo)*(float64(s)+rng.Float64())/n
		}
		return out
	}
	ws := strat(8, 24) // KB, against the 32 KB L1
	war := strat(0.4, 0.8)
	mem := strat(0.30, 0.50)
	store := strat(0.25, 0.45)
	seq := strat(0.3, 0.7)
	fp := strat(0.05, 0.30)
	profiles := make([]workload.Profile, n)
	for i := range profiles {
		profiles[i] = workload.Profile{
			Name: fmt.Sprintf("war%02d", i), Suite: "micro", Threads: 1, Instrs: 50_000,
			MemFrac: mem[i], StoreFrac: store[i], WARFrac: war[i],
			SeqFrac: seq[i], FPFrac: fp[i], DepFrac: 0.35, MissRate: 0.02,
			WorkingSetKB: int(ws[i]), Seed: rng.Uint64(),
		}
	}
	return profiles
}

// warJobs runs each war profile under the three policies on
// TimingSimpleCPU, where silent vs explicit E->M upgrades separate them.
func warJobs(seed uint64) []simJob {
	var jobs []simJob
	for _, p := range warProfiles(seed) {
		for _, pol := range coherence.Policies {
			jobs = append(jobs, machineJob(p, pol, workload.TimingSimpleCPU))
		}
	}
	return jobs
}

// Geometry of mesh256-sharing: the scale experiment's 256-core point.
const (
	meshCores   = 256
	meshGroups  = meshCores / 8
	meshRounds  = 128
	meshLayouts = 4 // layouts per seed, so a round keeps both workers busy
)

// meshConfig is the scale experiment's 256-core hierarchy: a 16x16 mesh,
// 32 cluster hubs, and per-core caches shrunk to 8 KB L1 / 64 KB LLC bank.
func meshConfig(pol coherence.Policy) coherence.SystemConfig {
	w, h := core.MeshDims(meshCores)
	return coherence.SystemConfig{
		NumL1:      meshCores,
		L1Params:   cache.Params{Name: "L1", SizeBytes: 8 << 10, Ways: 4, BlockSize: 64},
		LLCParams:  cache.Params{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64},
		Banks:      meshCores,
		Timing:     coherence.DefaultTiming(),
		Policy:     pol,
		DRAM:       dram.DDR3_1600_8x8(),
		Clusters:   meshGroups,
		Topology:   "mesh",
		MeshW:      w,
		MeshH:      h,
		MeshPerHop: 1,
	}
}

// meshLayout places the scale experiment's sharing mix: which core visits
// in which order, which 8 cores share each group line, and where the
// private, write-protected hot, and group lines sit (and so which banks
// and mesh distances they hit).
type meshLayout struct {
	name    string
	order   []int // core visit order within a round
	groupOf []int // core -> group
	members [meshGroups][]int
	private []cache.Addr // per core
	hot     [4]cache.Addr
	group   [meshGroups]cache.Addr
}

func newMeshLayout(seed uint64, k int) meshLayout {
	rng := newRNG(seed, 0x3e5+uint64(k))
	l := meshLayout{
		name:    fmt.Sprintf("layout%d", k),
		order:   rng.Perm(meshCores),
		groupOf: make([]int, meshCores),
		private: make([]cache.Addr, meshCores),
	}
	for i, c := range rng.Perm(meshCores) {
		l.groupOf[c] = i % meshGroups
		l.members[i%meshGroups] = append(l.members[i%meshGroups], c)
	}
	for c := range l.private {
		l.private[c] = cache.Addr(0x100000 + c*0x1000 + rng.IntN(64)*64)
	}
	for i, b := range rng.Perm(1024)[:len(l.hot)] {
		l.hot[i] = cache.Addr(0x40000 + b*64)
	}
	for j, b := range rng.Perm(4096)[:meshGroups] {
		l.group[j] = cache.Addr(0x200000 + b*64)
	}
	return l
}

// meshJobs runs meshLayouts layouts under the three policies.
func meshJobs(seed uint64) []simJob {
	var jobs []simJob
	for k := 0; k < meshLayouts; k++ {
		l := newMeshLayout(seed, k)
		for _, pol := range coherence.Policies {
			jobs = append(jobs, meshJob(l, pol))
		}
	}
	return jobs
}

// machineJob simulates profile p on a fresh 1-core Table V machine.
func machineJob(p workload.Profile, pol coherence.Policy, kind workload.CPUKind) simJob {
	name := p.Name + "/" + pol.Name()
	build := func() error {
		_, err := core.NewMachine(core.DefaultConfig(1, pol))
		return err
	}
	return simJob{name: name, constructor: "core.NewMachine", build: build, run: func(tr *tracer, parent int64) (jobResult, error) {
		sp := tr.start("workload.RunDetailed", parent, name)
		t0 := time.Now()
		res, m, err := workload.RunDetailed(p, core.DefaultConfig(1, pol), kind)
		simTime := time.Since(t0)
		sp.end()
		if err != nil {
			return jobResult{}, err
		}
		sp = tr.start("CheckInvariants", parent, name)
		err = m.CheckInvariants()
		sp.end()
		if err != nil {
			return jobResult{}, fmt.Errorf("%s: %w", name, err)
		}
		sp = tr.start("ArchMemHash", parent, name)
		r := jobResult{out: outcome{Cycles: uint64(res.ExecCycles), Count: res.Instrs, Hash: m.ArchMemHash()}}
		sp.end()
		r.c.addSystem(m.Sys)
		r.c.simTime = simTime
		r.c.instrs, r.c.cycles = res.Instrs, uint64(res.ExecCycles)
		for _, t := range res.PerThread {
			r.c.mispredicts += t.Mispredicts
		}
		return r, nil
	}}
}

// meshJob drives one layout's sharing mix through System.AccessSync: per
// round every core touches its private line (stores on odd rounds), reads
// a write-protected hot line and its group line, then one member per group
// stores to the group line, fanning invalidations out through the hubs.
func meshJob(l meshLayout, pol coherence.Policy) simJob {
	name := l.name + "/" + pol.Name()
	build := func() error {
		_, err := coherence.NewSystem(meshConfig(pol))
		return err
	}
	return simJob{name: name, constructor: "coherence.NewSystem", build: build, run: func(tr *tracer, parent int64) (jobResult, error) {
		sp := tr.start("coherence.NewSystem", parent, name)
		s, err := coherence.NewSystem(meshConfig(pol))
		sp.end()
		if err != nil {
			return jobResult{}, err
		}
		var h *histogram
		if tr != nil {
			h = new(histogram)
		}
		access := func(c int, addr cache.Addr, write, wp bool, v uint64) {
			if h == nil {
				s.AccessSync(c, addr, write, wp, v)
				return
			}
			t0 := time.Now()
			s.AccessSync(c, addr, write, wp, v)
			h.add(time.Since(t0))
		}
		sp = tr.start("AccessSync", parent, name)
		t0 := time.Now()
		for r := 0; r < meshRounds; r++ {
			for _, c := range l.order {
				access(c, l.private[c], r%2 == 1, false, uint64(c)<<8|uint64(r))
				access(c, l.hot[r%len(l.hot)], false, true, 0)
				access(c, l.group[l.groupOf[c]], false, false, 0)
			}
			for j, m := range l.members {
				access(m[r%len(m)], l.group[j], true, false, uint64(r))
			}
		}
		s.Quiesce()
		simTime := time.Since(t0)
		sp.end()
		tr.addHistogram(h)
		sp = tr.start("CheckInvariants", parent, name)
		err = s.CheckInvariants()
		sp.end()
		if err != nil {
			return jobResult{}, fmt.Errorf("%s: %w", name, err)
		}
		sp = tr.start("MemImageHash", parent, name)
		r := jobResult{out: outcome{Cycles: uint64(s.Eng.Now()), Hash: s.MemImageHash()}}
		sp.end()
		r.c.addSystem(s)
		r.out.Count = r.c.accesses
		r.c.simTime = simTime
		return r, nil
	}}
}
