// Top-level benchmarks: one per table/figure of the paper's evaluation
// (regenerating the comparison each iteration), plus substrate throughput
// benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks report the reproduced headline quantities via
// b.ReportMetric: normalized metrics (x100 of MESI), latency gaps, and
// bit error rates, so `go test -bench` output documents the reproduction.
package repro

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/interconnect"
	"repro/internal/intmap"
	"repro/internal/mmu"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- Substrate micro-benchmarks -----------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
}

func BenchmarkDRAMAccess(b *testing.B) {
	m := dram.New(dram.DDR3_1600_8x8())
	now := sim.Cycle(0)
	for i := 0; i < b.N; i++ {
		now = m.AccessAt(now, uint64(i)*64, false)
	}
}

func BenchmarkCacheArrayProbe(b *testing.B) {
	a := cache.NewArray(cache.Params{Name: "L1", SizeBytes: 32 << 10, Ways: 4, BlockSize: 64})
	for i := 0; i < 512; i++ {
		ad := cache.Addr(i * 64)
		a.Install(a.Victim(ad), ad, cache.Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Probe(cache.Addr(i%512) * 64)
	}
}

// benchAccess measures raw coherent accesses per second for a protocol
// (an ablation axis: protocol logic overhead).
func benchAccess(b *testing.B, p coherence.Policy) {
	m := core.MustNewMachine(core.DefaultConfig(2, p))
	proc := m.NewProcess()
	ctx := proc.AttachContext(0)
	heap := proc.MmapAnon(1 << 20)
	// Warm the full 8192-block working set before the timer. The first
	// pass faults every page and grows page tables and free lists — a
	// fixed ~800 KB that, inside the timed region, amortizes to
	// total/b.N and makes B/op read 0 or 1 depending on the iteration
	// count the framework happens to pick (the BENCH_2026-08-05 vs
	// 2026-08-08 drift). The steady state itself is allocation-free.
	for i := 0; i < 8192; i++ {
		ctx.MustAccessSync(heap+mmu.VAddr(i)*64, i%4 == 0, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MustAccessSync(heap+mmu.VAddr(i%8192)*64, i%4 == 0, uint64(i))
	}
}

func BenchmarkAccessMESI(b *testing.B)     { benchAccess(b, coherence.MESI) }
func BenchmarkAccessSwiftDir(b *testing.B) { benchAccess(b, coherence.SwiftDir) }
func BenchmarkAccessSMESI(b *testing.B)    { benchAccess(b, coherence.SMESI) }

// benchAccessHit measures the L1-hit steady state: a 16 KB working set
// (4 pages, well inside the 32 KB L1 and the 64-entry TLB) in M state,
// so after warmup every access is a stable-state hit: one tag-lookup
// event through the engine, with no directory or network work.
func benchAccessHit(b *testing.B, p coherence.Policy) {
	m := core.MustNewMachine(core.DefaultConfig(2, p))
	proc := m.NewProcess()
	ctx := proc.AttachContext(0)
	heap := proc.MmapAnon(16 << 10)
	const blocks = 16 << 10 / 64
	for i := 0; i < blocks; i++ {
		ctx.MustAccessSync(heap+mmu.VAddr(i)*64, true, uint64(i)) // fault + drive to M
	}
	m.Quiesce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MustAccessSync(heap+mmu.VAddr(i%blocks)*64, i%4 == 0, uint64(i))
	}
}

func BenchmarkAccessHitMESI(b *testing.B)     { benchAccessHit(b, coherence.MESI) }
func BenchmarkAccessHitSwiftDir(b *testing.B) { benchAccessHit(b, coherence.SwiftDir) }
func BenchmarkAccessHitSMESI(b *testing.B)    { benchAccessHit(b, coherence.SMESI) }

// --- MMU, workload generation and the O3 core ----------------------------

// benchTLB translates over distinct pages through a 64-entry TLB (Table
// V's DTB), every page faulted in before the timer: 16 pages keep every
// access a hit; 256 pages cycled in order make every access a miss that
// walks the page table and evicts the LRU entry. The gate pins both
// allocation-free.
func benchTLB(b *testing.B, pages int) {
	as := mmu.NewAddressSpace(mmu.NewPhysMem(0))
	base, err := as.Mmap(pages*mmu.PageSize, mmu.ProtRead|mmu.ProtWrite, mmu.MapPrivate|mmu.MapAnonymous, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	tlb := mmu.NewTLB(64)
	for i := 0; i < pages; i++ {
		tlb.Translate(as, base+mmu.VAddr(i)*mmu.PageSize, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tlb.Translate(as, base+mmu.VAddr(i%pages)*mmu.PageSize, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBTranslateHit(b *testing.B)  { benchTLB(b, 16) }
func BenchmarkTLBTranslateMiss(b *testing.B) { benchTLB(b, 256) }

// BenchmarkGeneratorNext measures workload generation per instruction on
// xalancbmk's stream, the SPEC stand-in with the most write-after-read
// pairs (each pair's store is held back for the following Next). The gate
// pins it allocation-free.
func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := workload.ProfileByName("xalancbmk")
	p.Instrs = b.N
	tr := workload.NewTrace(p, 0x4000_0000, 0x7000_0000_0000, p.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Next()
	}
}

// BenchmarkO3Instr measures the out-of-order core per instruction on the
// Figure 7 job shape: mcf's stream on the 1-core Table V machine under
// SwiftDir, so an op carries its share of the L1 misses, directory, DRAM
// and TLB work mcf causes. Machine construction is outside the timer.
func BenchmarkO3Instr(b *testing.B) {
	p, _ := workload.ProfileByName("mcf")
	p.Instrs = b.N
	m := core.MustNewMachine(core.DefaultConfig(1, coherence.SwiftDir))
	proc := m.NewProcess()
	shared := proc.MmapLibrary(mmu.NewFile(p.Name+".so", p.Seed), p.SharedKB*1024)
	heap := proc.MmapAnon(p.WorkingSetKB * 1024)
	c := cpu.NewOutOfOrder(proc.AttachContext(0), workload.NewTrace(p, heap, shared, p.Seed), nil)
	b.ResetTimer()
	cpu.Run(m, []cpu.CPU{c})
}

// --- Mesh + two-level directory benchmarks -------------------------------

// meshHop forwards one message per delivery: each Handle sends to the
// port 17 positions ahead (gcd(17, 256) = 1, so the tour covers every
// router), so each op is one full mesh traversal — XY link walk,
// per-link occupancy bookkeeping, and event dispatch.
type meshHop struct {
	m    *interconnect.Mesh
	port int
	left int
}

func (h *meshHop) Handle(sim.Payload) {
	if h.left <= 0 {
		return
	}
	h.left--
	next := (h.port + 17) % 256
	h.m.SendEvent(h.port, next, h, sim.Payload{})
	h.port = next
}

// BenchmarkMeshRoute measures one routed message per op on the 16x16
// mesh (the 256-core machine's network) with link occupancy enabled —
// the most bookkeeping a message can pay. The gate pins it
// allocation-free: routing is index arithmetic over preallocated link
// state, and the steady-state event queue holds one in-flight message.
func BenchmarkMeshRoute(b *testing.B) {
	eng := sim.NewEngine()
	m, err := interconnect.NewMesh(eng, interconnect.MeshConfig{
		Ports: 256, W: 16, H: 16, Latency: 3, PerHop: 1, LinkOccupancy: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := &meshHop{m: m, left: b.N}
	b.ResetTimer()
	eng.ScheduleEvent(1, h, sim.Payload{})
	eng.Run()
}

// BenchmarkAccessMesh64 is benchAccess on the scaled machine: 64 cores
// on an 8x8 mesh with the two-level directory (8 clusters), so every
// miss pays hub hops and distance-dependent mesh latency. LLC banks are
// shrunk to 256 KB — the 512 KB working set still fits the 16 MB
// aggregate — to keep the benchmark's setup cheap. The gate pins the
// steady state allocation-free like every access path.
func BenchmarkAccessMesh64(b *testing.B) {
	cfg := core.DefaultScaledConfig(64, coherence.SwiftDir)
	cfg.L2Bank.SizeBytes = 256 << 10
	m := core.MustNewMachine(cfg)
	proc := m.NewProcess()
	ctx := proc.AttachContext(0)
	heap := proc.MmapAnon(1 << 20)
	for i := 0; i < 8192; i++ { // warm the working set (see benchAccess)
		ctx.MustAccessSync(heap+mmu.VAddr(i)*64, i%4 == 0, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MustAccessSync(heap+mmu.VAddr(i%8192)*64, i%4 == 0, uint64(i))
	}
}

// mesh256Config is the scale experiment's 256-core point, the machine
// every mesh256-sharing job builds: 8 KB/4-way L1s, 256 LLC banks of
// 64 KB/8-way, 32 cluster hubs and a 16x16 mesh.
func mesh256Config() coherence.SystemConfig {
	w, h := core.MeshDims(256)
	return coherence.SystemConfig{
		NumL1:      256,
		L1Params:   cache.Params{Name: "L1", SizeBytes: 8 << 10, Ways: 4, BlockSize: 64},
		LLCParams:  cache.Params{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64},
		Banks:      256,
		Timing:     coherence.DefaultTiming(),
		Policy:     coherence.SwiftDir,
		DRAM:       dram.DDR3_1600_8x8(),
		Clusters:   32,
		Topology:   "mesh",
		MeshW:      w,
		MeshH:      h,
		MeshPerHop: 1,
	}
}

// BenchmarkNewSystemMesh256 measures building the 256-core hierarchy, the
// per-job setup of every mesh256-sharing job: a fresh machine allocates
// its controllers, mesh and per-set headers, and no cache line until a
// set's first install.
func BenchmarkNewSystemMesh256(b *testing.B) {
	cfg := mesh256Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coherence.MustNewSystem(cfg)
	}
}

// BenchmarkNewMachine measures building the 1-core Table V machine (32 KB
// L1s, one 2 MB LLC bank, MMU and DRAM), the per-job setup of the
// single-core figure runs.
func BenchmarkNewMachine(b *testing.B) {
	cfg := core.DefaultConfig(1, coherence.SwiftDir)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.MustNewMachine(cfg)
	}
}

// BenchmarkDirectoryWARLookup stresses the directory's lookups under a
// write-after-read pattern: core 0 installs a shared copy, core 1
// immediately writes the same block, so every iteration drives a GETS plus
// an invalidating GETX/Upgrade through the bank's busy table and the
// directory entries in its LLC lines. The gate pins it allocation-free.
func BenchmarkDirectoryWARLookup(b *testing.B) {
	m := core.MustNewMachine(core.DefaultConfig(2, coherence.SwiftDir))
	proc := m.NewProcess()
	reader := proc.AttachContext(0)
	writer := proc.AttachContext(1)
	heap := proc.MmapAnon(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := heap + mmu.VAddr(i%512)*64
		reader.MustAccessSync(a, false, 0)
		writer.MustAccessSync(a, true, uint64(i))
	}
}

// BenchmarkBlockTable measures the controllers' block-keyed table at a
// held capacity: each iteration does one Set, one Get and one Delete over
// a sliding window of 48 live block addresses, the steady state of an
// L1's MSHRs or a bank's busy transactions. The gate pins it
// allocation-free.
func BenchmarkBlockTable(b *testing.B) {
	const live = 48
	var m intmap.Map[uint64]
	for i := uint64(0); i < live; i++ {
		m.Set(i*64, i)
	}
	b.ResetTimer()
	for i := uint64(0); i < uint64(b.N); i++ {
		m.Set((i+live)*64, i)
		if _, ok := m.Get((i + live/2) * 64); !ok {
			b.Fatal("lost a live key")
		}
		m.Delete(i * 64)
	}
}

// --- Result-cache benchmarks ---------------------------------------------
//
// The server's per-request fast path is cache.Get (memory hit) and
// Flight.Do (uncontended leader); both are pinned allocation-free by the
// bench gate alongside the access paths.

func BenchmarkResultCacheHit(b *testing.B) {
	var st stats.CacheStats
	c := resultcache.New(16, "", &st, func(string, ...any) {})
	key, err := resultcache.NewKey("table5", experiments.Params{})
	if err != nil {
		b.Fatal(err)
	}
	c.Put(&resultcache.Entry{Key: key, Report: []byte("pinned report bytes")})
	id := key.ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(id); !ok {
			b.Fatal("hit path missed")
		}
	}
}

func BenchmarkSingleflightDo(b *testing.B) {
	f := resultcache.NewFlight(nil)
	key, err := resultcache.NewKey("table5", experiments.Params{})
	if err != nil {
		b.Fatal(err)
	}
	id := key.ID()
	entry := &resultcache.Entry{Report: []byte("r")}
	fn := func() (*resultcache.Entry, error) { return entry, nil }
	if _, _, err := f.Do(id, fn); err != nil { // warm the frame pool
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Do(id, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table and figure reproductions --------------------------------------

func BenchmarkTable4_QualitativeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table4()
		if len(rows) != 3 {
			b.Fatal("table IV incomplete")
		}
	}
}

func BenchmarkFig6_LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig6(context.Background(), 200)
		b.ReportMetric(d.LoadWP.Mean(), "LoadWP-cycles")
		b.ReportMetric(d.LoadS.Mean(), "LoadS-cycles")
		b.ReportMetric(d.LoadE.Mean(), "LoadE-cycles")
	}
}

func BenchmarkSecurity_CovertChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var mesiBER, swiftBER, gap float64
		for _, p := range []coherence.Policy{coherence.MESI, coherence.SwiftDir} {
			ch, err := attack.NewChannel(core.DefaultConfig(4, p), 256)
			if err != nil {
				b.Fatal(err)
			}
			r, err := ch.Run(256, 1)
			if err != nil {
				b.Fatal(err)
			}
			if p == coherence.MESI {
				mesiBER, gap = r.BER, r.Gap
			} else {
				swiftBER = r.BER
			}
		}
		b.ReportMetric(mesiBER, "MESI-BER")
		b.ReportMetric(swiftBER, "SwiftDir-BER")
		b.ReportMetric(gap, "MESI-ES-gap-cycles")
	}
}

func BenchmarkSecurity_SideChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := attack.NewSideChannel(core.DefaultConfig(4, coherence.SwiftDir), 128)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sc.Run(128, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Accuracy, "SwiftDir-inference-accuracy")
	}
}

func BenchmarkFig7_SPEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig7(context.Background(), 0.02)
		var sw, sm float64
		for _, r := range rows {
			sw += r.SwiftDir
			sm += r.SMESI
		}
		b.ReportMetric(sw/float64(len(rows)), "SwiftDir-normIPC")
		b.ReportMetric(sm/float64(len(rows)), "SMESI-normIPC")
	}
}

func BenchmarkFig8_PARSEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig8(context.Background(), 0.02)
		var sw, sm float64
		for _, r := range rows {
			sw += r.SwiftDir
			sm += r.SMESI
		}
		b.ReportMetric(sw/float64(len(rows)), "SwiftDir-normTime")
		b.ReportMetric(sm/float64(len(rows)), "SMESI-normTime")
	}
}

func BenchmarkFig9_ReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig9(context.Background(), []int{1000, 3000, 5000})
		var sw float64
		for _, r := range rows {
			sw += r.SwiftDir
		}
		b.ReportMetric(sw/float64(len(rows)), "SwiftDir-normTime")
	}
}

func BenchmarkFig10a_WAR_InOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig10(context.Background(), workload.TimingSimpleCPU, 1)
		var sm float64
		for _, r := range rows {
			sm += r.SMESI
		}
		b.ReportMetric(sm/float64(len(rows)), "SMESI-normTime")
	}
}

func BenchmarkFig5_CacheArchitectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig5(); len(out) == 0 {
			b.Fatal("empty Fig5")
		}
	}
}

func BenchmarkTraffic_MessageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Traffic(context.Background()); len(out) == 0 {
			b.Fatal("empty traffic report")
		}
	}
}

func BenchmarkAblation_Ewp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.AblationEwp(context.Background(), 64); len(out) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkFutureWork_FastCoW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FutureWork(64); len(out) == 0 {
			b.Fatal("empty future-work report")
		}
	}
}

func BenchmarkStudy_MOESIFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.MOESIStudy(context.Background(), 64, 1); len(out) == 0 {
			b.Fatal("empty study")
		}
	}
}

func BenchmarkStudy_Snoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.SnoopStudy(context.Background(), 64); len(out) == 0 {
			b.Fatal("empty study")
		}
	}
}

func BenchmarkStudy_Prefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Prefetch(64); len(out) == 0 {
			b.Fatal("empty study")
		}
	}
}

func BenchmarkStudy_Multiprogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Multiprogram(context.Background(), 0.02)
		if len(rows) != 5 {
			b.Fatal("mix count")
		}
	}
}

func BenchmarkFig10b_WAR_OoO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig10(context.Background(), workload.DerivO3CPU, 1)
		var sm float64
		for _, r := range rows {
			sm += r.SMESI
		}
		b.ReportMetric(sm/float64(len(rows)), "SMESI-normTime")
	}
}

func BenchmarkStudy_TimingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TimingSweep(context.Background()); len(out) == 0 {
			b.Fatal("empty study")
		}
	}
}

func BenchmarkStudy_MSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.MSIStudy(context.Background(), 64, 1); len(out) == 0 {
			b.Fatal("empty study")
		}
	}
}

func BenchmarkStudy_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.HardwareCosts(4)) != 7 {
			b.Fatal("cost table incomplete")
		}
	}
}

// --- Campaign runner: sequential vs parallel suite execution ------------
//
// BenchmarkCampaignFig7* run the same Figure 7 grid (23 SPEC benchmarks x
// 3 protocols at scale 0.05) with the campaign pool pinned to one worker
// and opened up to all CPUs, so BENCH_*.json tracks the parallel speedup
// across PRs. The reports must be byte-identical; only the wall time may
// differ.

func benchCampaignFig7(b *testing.B, workers int) {
	rec := &stats.Recorder{Workers: workers}
	ctx := stats.WithRecorder(context.Background(), rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig7(ctx, 0.05)
		if len(rows) != 23 {
			b.Fatal("incomplete suite")
		}
	}
	b.StopTimer()
	if sums := rec.Campaigns(); len(sums) > 0 {
		merged := stats.MergeCampaigns("fig7", sums)
		b.ReportMetric(merged.Speedup(), "campaign-speedup")
	}
}

func BenchmarkCampaignFig7Sequential(b *testing.B) { benchCampaignFig7(b, 1) }
func BenchmarkCampaignFig7Parallel(b *testing.B)   { benchCampaignFig7(b, 0) }

// BenchmarkCampaignPoolOverhead measures the scheduler's fixed cost with
// trivial jobs: what the pool adds per job when simulations are free.
func BenchmarkCampaignPoolOverhead(b *testing.B) {
	jobs := make([]campaign.Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = campaign.Job[int]{Name: "noop", Run: func() (int, error) { return i, nil }}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign.Run(4, jobs)
	}
}
