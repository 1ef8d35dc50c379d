// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each function runs the relevant workloads across the
// three protocols and returns both machine-readable data and a rendered
// plain-text report. cmd/swiftdir-bench and the repository's top-level
// benchmarks are thin wrappers around this package; EXPERIMENTS.md records
// the outputs next to the paper's numbers.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// protocols in the paper's presentation order: baseline first, then the
// contribution, then the prior defense.
var protocols = []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SMESI}

// Table5 renders the experiment setup.
func Table5() string {
	return core.DefaultConfig(4, coherence.SwiftDir).Describe()
}

// Table4Row is one protocol's qualitative behaviour, measured rather than
// asserted: the two "efficient handling" properties of Table IV.
type Table4Row struct {
	Protocol          string
	ServeEFromLLC     bool // remote load of an E-granted block is LLC-latency
	SilentUpgradeOnL1 bool // store on an E block completes in the L1
	RemoteLoadLatency sim.Cycle
	StoreOnELatency   sim.Cycle
}

// Table4 measures the qualitative matrix of Table IV with live probes.
func Table4() ([]Table4Row, string) {
	var rows []Table4Row
	for _, p := range protocols {
		m := core.MustNewMachine(core.DefaultConfig(2, p))
		proc := m.NewProcess()
		c0, c1 := proc.AttachContext(0), proc.AttachContext(1)
		heap := proc.MmapAnon(1 << 16)

		// Shared-data probe: initial load on core 1, remote load on
		// core 0. Under SwiftDir shared data are write-protected, so
		// probe through a library mapping.
		lib := mmu.NewFile("table4.so", 4)
		libBase := proc.MmapLibrary(lib, 1<<16)
		c1.MustAccessSync(libBase, false, 0)
		c0.MustAccessSync(libBase+mmu.PageSize-64, false, 0) // warm core 0 TLB, different line
		remote := c0.MustAccessSync(libBase, false, 0)

		// Unshared-data probe: read then write on core 0.
		c0.MustAccessSync(heap, false, 0)
		store := c0.MustAccessSync(heap, true, 1)

		m.Quiesce()
		rows = append(rows, Table4Row{
			Protocol:          p.Name(),
			ServeEFromLLC:     remote.Latency == m.Cfg.Timing.LLCLoadLatency(),
			SilentUpgradeOnL1: store.Latency == m.Cfg.Timing.L1Tag,
			RemoteLoadLatency: remote.Latency,
			StoreOnELatency:   store.Latency,
		})
	}
	tb := stats.NewTable(
		"Table IV: Whether E-state shared and unshared data are efficiently handled (measured)",
		"Protocol", "serve E from LLC", "silent E->M on L1", "remote load (cyc)", "store on E (cyc)")
	check := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		tb.AddRowF(r.Protocol, check(r.ServeEFromLLC), check(r.SilentUpgradeOnL1),
			r.RemoteLoadLatency, r.StoreOnELatency)
	}
	return rows, tb.Render()
}

// Fig6Data is the latency CDF comparison of Figure 6.
type Fig6Data struct {
	LoadWP   *stats.Histogram // SwiftDir Load_WP(L1I&L2S)
	LoadS    *stats.Histogram // MESI Load(L1I&L2S)
	LoadE    *stats.Histogram // MESI Load(L1I&L2E): the exploited slow path (context)
	Rendered string
}

// Fig6 measures coherence-request latencies: SwiftDir's Load_WP of shared
// data against MESI's Load of S-state data (both LLC-served, ~17 cycles),
// plus MESI's E-state path for contrast. A done ctx aborts the
// measurement loop mid-simulation with a "cancelled" violation.
func Fig6(ctx context.Context, samples int) Fig6Data {
	d := Fig6Data{
		LoadWP: &stats.Histogram{},
		LoadS:  &stats.Histogram{},
		LoadE:  &stats.Histogram{},
	}

	// SwiftDir: every cross-core load of write-protected shared data.
	{
		cfg := core.DefaultConfig(2, coherence.SwiftDir)
		cfg.Context = ctx
		m := core.MustNewMachine(cfg)
		proc := m.NewProcess()
		c0, c1 := proc.AttachContext(0), proc.AttachContext(1)
		lib := mmu.NewFile("fig6.so", 6)
		base := proc.MmapLibrary(lib, (samples/63+2)*mmu.PageSize)
		for i := 0; i < samples; i++ {
			page, line := i/63, i%63+1
			v := base + mmu.VAddr(page*mmu.PageSize+line*64)
			c1.MustAccessSync(v, false, 0)
			c0.MustAccessSync(base+mmu.VAddr(page*mmu.PageSize), false, 0) // TLB warm
			r := c0.MustAccessSync(v, false, 0)
			d.LoadWP.Add(r.Latency)
		}
	}
	// MESI: S-state loads (two prior sharers) and E-state loads.
	{
		cfg := core.DefaultConfig(4, coherence.MESI)
		cfg.Context = ctx
		m := core.MustNewMachine(cfg)
		proc := m.NewProcess()
		c0, c1, c2 := proc.AttachContext(0), proc.AttachContext(1), proc.AttachContext(2)
		lib := mmu.NewFile("fig6-mesi.so", 7)
		base := proc.MmapLibrary(lib, (2*samples/63+2)*mmu.PageSize)
		addr := func(i int) (mmu.VAddr, mmu.VAddr) {
			page, line := i/63, i%63+1
			return base + mmu.VAddr(page*mmu.PageSize+line*64),
				base + mmu.VAddr(page*mmu.PageSize)
		}
		for i := 0; i < samples; i++ {
			v, warm := addr(i)
			c1.MustAccessSync(v, false, 0) // E on core 1
			c2.MustAccessSync(v, false, 0) // E -> S (forward); now S in LLC
			c0.MustAccessSync(warm, false, 0)
			r := c0.MustAccessSync(v, false, 0)
			d.LoadS.Add(r.Latency)
		}
		for i := samples; i < 2*samples; i++ {
			v, warm := addr(i)
			c1.MustAccessSync(v, false, 0) // E on core 1
			c0.MustAccessSync(warm, false, 0)
			r := c0.MustAccessSync(v, false, 0)
			d.LoadE.Add(r.Latency)
		}
	}
	d.Rendered = stats.RenderCDF(
		"Figure 6: CDF of coherence request latency (cycles)",
		[]string{"Load_WP(L1I&L2S) SwiftDir", "Load(L1I&L2S) MESI", "Load(L1I&L2E) MESI"},
		[][]stats.CDFPoint{d.LoadWP.CDF(), d.LoadS.CDF(), d.LoadE.CDF()},
	)
	return d
}

// Fig6Jitter re-measures Figure 6 on a machine with finite interconnect
// bandwidth (LinkOccupancy > 0) and background traffic from the other two
// cores, so the latency distributions acquire the load-dependent spread
// the paper's gem5 measurements show — "centralized around 17 cycles"
// rather than a point mass. The security conclusion is unchanged: the
// Load_WP and Load(S) distributions coincide; only MESI's E-state path is
// shifted. A done ctx aborts the run as in Fig6.
func Fig6Jitter(ctx context.Context, samples int) Fig6Data {
	d := Fig6Data{
		LoadWP: &stats.Histogram{},
		LoadS:  &stats.Histogram{},
		LoadE:  &stats.Histogram{},
	}
	measure := func(p coherence.Policy, wp bool, h *stats.Histogram, makeShared bool) {
		cfg := core.DefaultConfig(4, p)
		cfg.Timing.LinkOccupancy = 2
		cfg.Context = ctx
		m := core.MustNewMachine(cfg)
		proc := m.NewProcess()
		lib := mmu.NewFile("fig6j.so", 0x616)
		pages := 2*samples/63 + 2
		base := proc.MmapLibrary(lib, pages*mmu.PageSize)
		c0 := proc.AttachContext(0)
		c1 := proc.AttachContext(1)
		c2 := proc.AttachContext(2)
		noise := proc.AttachContext(3)
		noiseHeap := proc.MmapAnon(1 << 20)

		// Background chatter: core 3 streams its heap continuously.
		rng := sim.NewRNG(0xBA5E)
		var chatter func(n int)
		chatter = func(n int) {
			if n == 0 {
				return
			}
			v := noiseHeap + mmu.VAddr(rng.Intn(1<<14))*64
			_ = noise.Access(v, rng.Bool(0.3), rng.Uint64(), func(coherence.AccessResult) {
				chatter(n - 1)
			})
		}
		chatter(100 * samples)

		addr := func(i int) (mmu.VAddr, mmu.VAddr) {
			page, line := i/63, i%63+1
			return base + mmu.VAddr(page*mmu.PageSize+line*64),
				base + mmu.VAddr(page*mmu.PageSize)
		}
		for i := 0; i < samples; i++ {
			v, warm := addr(i)
			c1.MustAccessSync(v, false, 0)
			if makeShared {
				c2.MustAccessSync(v, false, 0)
			}
			c0.MustAccessSync(warm, false, 0)
			r := c0.MustAccessSync(v, false, 0)
			h.Add(r.Latency)
		}
		_ = wp
	}
	// SwiftDir WP loads (inherently shared), MESI S-state, MESI E-state.
	measureWP := func(h *stats.Histogram) {
		cfg := core.DefaultConfig(4, coherence.SwiftDir)
		cfg.Timing.LinkOccupancy = 2
		cfg.Context = ctx
		m := core.MustNewMachine(cfg)
		proc := m.NewProcess()
		lib := mmu.NewFile("fig6j-wp.so", 0x617)
		pages := samples/63 + 2
		base := proc.MmapLibrary(lib, pages*mmu.PageSize)
		c0, c1 := proc.AttachContext(0), proc.AttachContext(1)
		noise := proc.AttachContext(3)
		noiseHeap := proc.MmapAnon(1 << 20)
		rng := sim.NewRNG(0xBA5F)
		var chatter func(n int)
		chatter = func(n int) {
			if n == 0 {
				return
			}
			v := noiseHeap + mmu.VAddr(rng.Intn(1<<14))*64
			_ = noise.Access(v, rng.Bool(0.3), rng.Uint64(), func(coherence.AccessResult) {
				chatter(n - 1)
			})
		}
		chatter(100 * samples)
		for i := 0; i < samples; i++ {
			page, line := i/63, i%63+1
			v := base + mmu.VAddr(page*mmu.PageSize+line*64)
			warm := base + mmu.VAddr(page*mmu.PageSize)
			c1.MustAccessSync(v, false, 0)
			c0.MustAccessSync(warm, false, 0)
			r := c0.MustAccessSync(v, false, 0)
			h.Add(r.Latency)
		}
	}
	measureWP(d.LoadWP)
	measure(coherence.MESI, false, d.LoadS, true)
	measure(coherence.MESI, false, d.LoadE, false)
	d.Rendered = stats.RenderCDF(
		"Figure 6 (contended interconnect): CDF of coherence request latency (cycles)",
		[]string{"Load_WP(L1I&L2S) SwiftDir", "Load(L1I&L2S) MESI", "Load(L1I&L2E) MESI"},
		[][]stats.CDFPoint{d.LoadWP.CDF(), d.LoadS.CDF(), d.LoadE.CDF()},
	)
	return d
}

// Security runs the covert- and side-channel attacks on all protocols.
// Each protocol's attack is an independent campaign job; the rendered
// report concatenates the per-protocol chunks in the paper's protocol
// order, so the output is identical at any worker count. A done ctx
// aborts the attack machines mid-simulation and skips jobs not yet
// started.
func Security(ctx context.Context, bits, trials int) (results []attack.Result, sides []attack.SideResult, rendered string) {
	var b strings.Builder
	b.WriteString("Security: E/S coherence timing-channel attacks (§V-A)\n\n")
	b.WriteString("Covert channel (sender modulates E/S, receiver times loads):\n")

	type covertOut struct {
		res  attack.Result
		text string
	}
	var covertJobs []campaign.Job[covertOut]
	for _, p := range protocols {
		covertJobs = append(covertJobs, campaign.Job[covertOut]{
			Name: "security/covert/" + p.Name(),
			Run: func() (covertOut, error) {
				cfg := core.DefaultConfig(4, p)
				cfg.Context = ctx
				ch, err := attack.NewChannel(cfg, bits)
				if err != nil {
					return covertOut{}, err
				}
				r, err := ch.Run(bits, 0xC0F3)
				if err != nil {
					return covertOut{}, err
				}
				var cb strings.Builder
				cb.WriteString("  " + r.Describe() + "\n")
				if r.Leaked {
					fmt.Fprintf(&cb, "            leak rate: %.0f Kbps at 3 GHz (%.0f cycles/bit, idealized lockstep;\n",
						r.KbpsAt(3.0), r.CyclesPerBit)
					cb.WriteString("            the paper's 700~1,100 Kbps includes sender/receiver synchronization)\n")
				}
				return covertOut{res: r, text: cb.String()}, nil
			},
		})
	}
	for _, out := range campaign.MustCollect(ctx, covertJobs) {
		results = append(results, out.res)
		b.WriteString(out.text)
	}

	b.WriteString("\nInstruction-fetch channel (bits executed from shared library code):\n")
	var textJobs []campaign.Job[string]
	for _, p := range protocols {
		textJobs = append(textJobs, campaign.Job[string]{
			Name: "security/textchannel/" + p.Name(),
			Run: func() (string, error) {
				cfg := core.DefaultConfig(4, p)
				cfg.Context = ctx
				tc, err := attack.NewTextChannel(cfg, bits/4)
				if err != nil {
					return "", err
				}
				r, err := tc.Run(bits/4, 0x1F)
				if err != nil {
					return "", err
				}
				return "  " + r.Describe() + "\n", nil
			},
		})
	}
	for _, line := range campaign.MustCollect(ctx, textJobs) {
		b.WriteString(line)
	}

	b.WriteString("\nSide channel (attacker infers victim accesses):\n")
	var sideJobs []campaign.Job[attack.SideResult]
	for _, p := range protocols {
		sideJobs = append(sideJobs, campaign.Job[attack.SideResult]{
			Name: "security/side/" + p.Name(),
			Run: func() (attack.SideResult, error) {
				cfg := core.DefaultConfig(4, p)
				cfg.Context = ctx
				sc, err := attack.NewSideChannel(cfg, trials)
				if err != nil {
					return attack.SideResult{}, err
				}
				return sc.Run(trials, 0x51DE)
			},
		})
	}
	for _, r := range campaign.MustCollect(ctx, sideJobs) {
		sides = append(sides, r)
		b.WriteString("  " + r.Describe() + "\n")
	}
	return results, sides, b.String()
}

// SuiteRow holds one benchmark's metric under the three protocols,
// normalized to MESI (x100, as the paper's figures).
type SuiteRow struct {
	Benchmark string
	MESI      float64 // always 100
	SwiftDir  float64
	SMESI     float64
}

// runSuite executes profiles under all protocols and normalizes metric
// (IPC: higher is better; exec time: lower is better) against MESI.
// Every benchmark×protocol cell is an independent simulation, so the
// whole grid fans out over the campaign pool; normalization happens
// after collection, on results in submission order. A done ctx aborts
// every benchmark machine and skips jobs not yet started.
func runSuite(ctx context.Context, profiles []workload.Profile, kind workload.CPUKind, useIPC bool, scale float64) []SuiteRow {
	var jobs []campaign.Job[float64]
	for _, p := range profiles {
		sp := p.Scale(scale)
		for _, proto := range protocols {
			jobs = append(jobs, campaign.Job[float64]{
				Name: p.Name + "/" + proto.Name(),
				Run: func() (float64, error) {
					r, err := workload.Run(ctx, sp, proto, kind)
					if err != nil {
						return 0, err
					}
					if useIPC {
						return r.IPC, nil
					}
					return float64(r.ExecCycles), nil
				},
			})
		}
	}
	metrics := campaign.MustCollect(ctx, jobs)

	var rows []SuiteRow
	for i, p := range profiles {
		base := metrics[i*len(protocols)] // protocols[0] is MESI
		rows = append(rows, SuiteRow{
			Benchmark: p.Name,
			MESI:      100,
			SwiftDir:  stats.Normalize(metrics[i*len(protocols)+1], base),
			SMESI:     stats.Normalize(metrics[i*len(protocols)+2], base),
		})
	}
	return rows
}

func renderSuite(title, metric string, rows []SuiteRow) string {
	tb := stats.NewTable(title, "benchmark", "MESI", "SwiftDir", "S-MESI")
	var sw, sm []float64
	for _, r := range rows {
		tb.AddRowF(r.Benchmark, r.MESI, r.SwiftDir, r.SMESI)
		sw = append(sw, r.SwiftDir)
		sm = append(sm, r.SMESI)
	}
	tb.AddRowF("average", 100.0, stats.Mean(sw), stats.Mean(sm))
	return tb.Render() + fmt.Sprintf("(normalized %s over MESI; x100)\n", metric)
}

// Fig7 reproduces the single-threaded SPEC comparison (normalized IPC,
// higher is better). scale shrinks instruction counts for quick runs.
func Fig7(ctx context.Context, scale float64) ([]SuiteRow, string) {
	rows := runSuite(ctx, workload.SPEC2017(), workload.DerivO3CPU, true, scale)
	return rows, renderSuite(
		"Figure 7: Single-threaded SPEC CPU 2017 - normalized IPC (higher is better)",
		"IPC", rows)
}

// Fig8 reproduces the multi-threaded PARSEC comparison (normalized ROI
// execution time, lower is better).
func Fig8(ctx context.Context, scale float64) ([]SuiteRow, string) {
	rows := runSuite(ctx, workload.PARSEC3(), workload.DerivO3CPU, false, scale)
	return rows, renderSuite(
		"Figure 8: Multi-threaded PARSEC 3.0 - normalized ROI execution time (lower is better)",
		"execution time", rows)
}

// Fig9Amounts are the paper's shared-data sweep points.
var Fig9Amounts = []int{1000, 2000, 3000, 4000, 5000}

// Fig9 reproduces the read-only shared-data sweep (normalized execution
// time, lower is better).
func Fig9(ctx context.Context, amounts []int) ([]SuiteRow, string) {
	var jobs []campaign.Job[float64]
	for _, n := range amounts {
		for _, proto := range protocols {
			jobs = append(jobs, campaign.Job[float64]{
				Name: fmt.Sprintf("fig9/%d/%s", n, proto.Name()),
				Run: func() (float64, error) {
					r, err := workload.RunReadOnly(ctx, n, proto, workload.DerivO3CPU)
					if err != nil {
						return 0, err
					}
					return float64(r.ExecCycles), nil
				},
			})
		}
	}
	metrics := campaign.MustCollect(ctx, jobs)

	var rows []SuiteRow
	for i, n := range amounts {
		base := metrics[i*len(protocols)]
		rows = append(rows, SuiteRow{
			Benchmark: fmt.Sprintf("%d", n),
			MESI:      100,
			SwiftDir:  stats.Normalize(metrics[i*len(protocols)+1], base),
			SMESI:     stats.Normalize(metrics[i*len(protocols)+2], base),
		})
	}
	return rows, renderSuite(
		"Figure 9: Multi-threaded read-only benchmarks - normalized execution time vs amount of shared data",
		"execution time", rows)
}

// Fig10 reproduces the write-after-read intensive applications under one
// CPU model (normalized execution time, lower is better). The paper's
// Figure 10(a) uses TimingSimpleCPU and 10(b) DerivO3CPU.
func Fig10(ctx context.Context, kind workload.CPUKind, passes int) ([]SuiteRow, string) {
	apps := workload.WARApps()
	var jobs []campaign.Job[float64]
	for _, app := range apps {
		for _, proto := range protocols {
			jobs = append(jobs, campaign.Job[float64]{
				Name: fmt.Sprintf("fig10/%s/%s", app.Name, proto.Name()),
				Run: func() (float64, error) {
					r, err := workload.RunWAR(ctx, app, proto, kind, passes)
					if err != nil {
						return 0, err
					}
					return float64(r.ExecCycles), nil
				},
			})
		}
	}
	metrics := campaign.MustCollect(ctx, jobs)

	var rows []SuiteRow
	for i, app := range apps {
		base := metrics[i*len(protocols)]
		rows = append(rows, SuiteRow{
			Benchmark: app.Name,
			MESI:      100,
			SwiftDir:  stats.Normalize(metrics[i*len(protocols)+1], base),
			SMESI:     stats.Normalize(metrics[i*len(protocols)+2], base),
		})
	}
	sub := "(a) TimingSimpleCPU"
	if kind == workload.DerivO3CPU {
		sub = "(b) DerivO3CPU"
	}
	return rows, renderSuite(
		"Figure 10"+sub+": Write-after-read intensive benchmarks - normalized execution time",
		"execution time", rows)
}
